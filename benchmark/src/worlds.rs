//! Workload generators: the worlds the five workloads run against.
//!
//! Everything here is derived from the seed argument; the program under
//! test receives only the generated catalog, farm, network, users and
//! request sequence. The metro recipe restates bench B12's
//! (`crates/bench/src/fleet.rs`) on purpose, so that edits to
//! `crates/bench` cannot move the workloads later issues cite by name.

use std::time::Instant;

use nod_broker::{FaultPlan, SessionSpec};
use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
use nod_mmdb::corpus::{
    audio_sample_bytes, standard_audio_ladder, standard_video_ladder, video_frame_bytes,
};
use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
use nod_mmdoc::prelude::*;
use nod_netsim::{LinkId, Network, Topology};
use nod_qosneg::negotiate::{NegotiationContext, StreamingMode};
use nod_qosneg::{ClassificationStrategy, CostModel, UserProfile};
use nod_simcore::{StreamRng, ZipfSampler};
use nod_workload::UserPopulation;

/// Client machines every world draws its users from.
const CLIENT_POOL: usize = 64;
/// Metro access links, bit/s.
const ACCESS_BPS: u64 = 10_000_000_000;
/// Metro backbone, bit/s — fat enough that admission, not the network,
/// is the bottleneck.
const BACKBONE_BPS: u64 = 400_000_000_000;
/// How long every fleet session holds its resources, ms.
pub const HOLD_MS: u64 = 60_000;
/// The virtual span fleet arrivals spread over, minutes: about 1/30 of
/// the offered sessions are in flight at once.
const ARRIVAL_SPAN_MIN: f64 = 30.0;
/// Article popularity skew. Gentle, so the hottest article's demand
/// stays within what its replicas can serve at every scale.
const ZIPF_S: f64 = 0.3;

/// One request of a workload's sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into [`World::users`].
    pub user: u32,
    pub document: DocumentId,
    /// Arrival on the virtual clock, ms (fleet workloads only).
    pub arrival_ms: u64,
}

/// Host seconds each set-up stage took.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSeconds {
    pub corpus: f64,
    pub topology: f64,
    pub schedule: f64,
    pub world: f64,
}

/// What kind of article a click-corpus document is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArticleClass {
    /// The metro recipe: 2–5 video rungs, 1–3 audio rungs, 2–4 copies.
    Standard,
    /// Every ladder rung, 3–4 copies, image and French always: 768 to
    /// 1 024 stored combinations.
    Rich,
    /// Ten components of two variants each — past
    /// `MAX_STREAM_COMPONENTS`, so negotiation takes the eager fallback.
    Wide,
}

pub struct World {
    pub catalog: Catalog,
    pub farm: ServerFarm,
    pub network: Network,
    pub cost: CostModel,
    pub users: Vec<(ClientMachine, UserProfile)>,
    pub requests: Vec<Request>,
    pub faults: FaultPlan,
    /// Class of document `i + 1` (click corpus only; empty for metro).
    pub classes: Vec<ArticleClass>,
    pub stages: StageSeconds,
}

/// The metro world's size knobs.
#[derive(Debug, Clone, Copy)]
pub struct MetroParams {
    pub sessions: usize,
    /// Concurrent streams the farm is sized for, per server: 12 is the
    /// healthy-but-contended band, 120 is a tenth of the servers.
    pub streams_per_server: usize,
    /// Seeded fault windows on client access links (0 = none).
    pub fault_windows: usize,
    pub users: UserMix,
}

/// The click corpus's size knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClickParams {
    pub documents: usize,
    pub requests: usize,
}

/// The metro dumbbell: 64 clients on 10 Gb/s access links, `servers`
/// servers behind a 400 Gb/s backbone.
pub fn metro_network(servers: usize) -> Network {
    Network::new(Topology::dumbbell(
        CLIENT_POOL,
        servers,
        ACCESS_BPS,
        BACKBONE_BPS,
    ))
}

/// How the 64 users are drawn from `UserPopulation::era_default`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserMix {
    /// Each class gets its exact share of the 64 users (13 premium, 32
    /// standard, 13 economy, 6 francophone); the seed only decides who
    /// sits at which machine. Premium users ask for the big streams, so
    /// a sampled mix of 5 to 18 of them moves retries — and host time
    /// per session — by a third from seed to seed; the workloads hold
    /// the mix still so that a seed changes the draw, not the load.
    Stratified,
    /// B12's independent draw per user. Kept for the test that checks
    /// the rest of the recipe against the B12 row.
    #[cfg(test)]
    Sampled,
}

fn era_users(rng: &mut StreamRng, mix: UserMix) -> Vec<(ClientMachine, UserProfile)> {
    let population = UserPopulation::era_default();
    match mix {
        UserMix::Stratified => {
            let classes = population.classes();
            let total: f64 = classes.iter().map(|c| c.weight).sum();
            // Largest-remainder apportionment of the pool over the classes.
            let quotas: Vec<f64> = classes
                .iter()
                .map(|c| c.weight / total * CLIENT_POOL as f64)
                .collect();
            let mut seats: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
            let mut by_remainder: Vec<usize> = (0..classes.len()).collect();
            by_remainder.sort_by(|&a, &b| {
                (quotas[b] - quotas[b].floor())
                    .partial_cmp(&(quotas[a] - quotas[a].floor()))
                    .expect("finite weights")
            });
            let unseated = CLIENT_POOL - seats.iter().sum::<usize>();
            for &c in by_remainder.iter().take(unseated) {
                seats[c] += 1;
            }
            let mut class_of: Vec<usize> = seats
                .iter()
                .enumerate()
                .flat_map(|(c, &n)| std::iter::repeat_n(c, n))
                .collect();
            rng.shuffle(&mut class_of);
            class_of
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let class = &classes[c];
                    ((class.machine)(ClientId(i as u64)), class.profile.clone())
                })
                .collect()
        }
        #[cfg(test)]
        UserMix::Sampled => (0..CLIENT_POOL)
            .map(|i| {
                let (_, profile, machine) = population.sample(rng, ClientId(i as u64));
                (machine, profile)
            })
            .collect(),
    }
}

impl World {
    /// Metro world(N): max(N/40, 256) articles with 2–4 copies each, one
    /// era-default server per `streams_per_server` concurrent streams, a
    /// 64-client dumbbell, 64 users from the era population, Poisson
    /// arrivals over 30 virtual minutes.
    pub fn metro(seed: u64, p: &MetroParams) -> World {
        let t_world = Instant::now();
        let documents = (p.sessions / 40).max(256);
        let concurrent =
            ((p.sessions as f64) * (HOLD_MS as f64 / 60_000.0) / ARRIVAL_SPAN_MIN).ceil() as usize;
        let servers = (concurrent / p.streams_per_server).max(2);

        // The first three streams are split in B12's order, so seed 12
        // reproduces the B12 rows; faults draw from a fourth.
        let mut master = StreamRng::new(seed);
        let mut corpus_rng = master.split();
        let mut arrival_rng = master.split();
        let mut user_rng = master.split();
        let mut fault_rng = master.split();

        let t = Instant::now();
        let catalog = CorpusBuilder::new(CorpusParams {
            documents,
            servers: (0..servers as u64).map(ServerId).collect(),
            replicas: (1, 3),
            ..CorpusParams::default()
        })
        .build(&mut corpus_rng);
        let corpus = t.elapsed().as_secs_f64();

        let farm = ServerFarm::uniform(servers, ServerConfig::era_default());
        let t = Instant::now();
        let network = metro_network(servers);
        let topology = t.elapsed().as_secs_f64();

        let users = era_users(&mut user_rng, p.users);

        let t = Instant::now();
        let mean_gap_secs = ARRIVAL_SPAN_MIN * 60.0 / p.sessions.max(1) as f64;
        let popularity = ZipfSampler::new(documents, ZIPF_S);
        let mut at_secs = 0.0;
        let requests: Vec<Request> = (0..p.sessions)
            .map(|n| {
                at_secs += arrival_rng.exp(mean_gap_secs);
                Request {
                    user: (n % CLIENT_POOL) as u32,
                    document: DocumentId(popularity.sample(&mut user_rng) as u64 + 1),
                    arrival_ms: (at_secs * 1_000.0) as u64,
                }
            })
            .collect();
        let schedule = t.elapsed().as_secs_f64();

        let faults = if p.fault_windows == 0 {
            FaultPlan::none()
        } else {
            // Faults land on client access links only. Every window then
            // takes out 1/64 of the clients; a window on one of a
            // handful of servers, or on the backbone, would decide the
            // whole run and make the workload a lottery over seeds.
            let topology = network.topology();
            let access: Vec<LinkId> = (0..CLIENT_POOL as u64)
                .filter_map(|c| topology.client_node(ClientId(c)))
                .flat_map(|node| topology.incident(node).iter().copied())
                .collect();
            let horizon_ms = requests.last().map_or(0, |r| r.arrival_ms) + HOLD_MS;
            FaultPlan::seeded(&mut fault_rng, &[], &access, horizon_ms, p.fault_windows)
        };

        World {
            catalog,
            farm,
            network,
            cost: CostModel::era_default(),
            users,
            requests,
            faults,
            classes: Vec::new(),
            stages: StageSeconds {
                corpus,
                topology,
                schedule,
                world: t_world.elapsed().as_secs_f64(),
            },
        }
    }

    /// The click corpus: 70% standard, 25% rich and 5% wide articles
    /// over a farm roomy enough that no click is refused, and a zipf
    /// request sequence round-robin over the 64 users.
    pub fn click(seed: u64, p: &ClickParams) -> World {
        let t_world = Instant::now();
        // 200 held reservations of about two streams each, at the
        // metro's 12 streams per server, with room to spare.
        let servers = 64;

        let mut master = StreamRng::new(seed);
        let mut corpus_rng = master.split();
        let mut request_rng = master.split();
        let mut user_rng = master.split();

        let t = Instant::now();
        let server_ids: Vec<ServerId> = (0..servers as u64).map(ServerId).collect();
        let mut press = ArticlePress::new(&server_ids);
        let mut classes = Vec::with_capacity(p.documents);
        for d in 0..p.documents {
            let class = match corpus_rng.f64() {
                x if x < 0.70 => ArticleClass::Standard,
                x if x < 0.95 => ArticleClass::Rich,
                _ => ArticleClass::Wide,
            };
            press.print(DocumentId(d as u64 + 1), class, &mut corpus_rng);
            classes.push(class);
        }
        let catalog = press.catalog;
        let corpus = t.elapsed().as_secs_f64();

        let farm = ServerFarm::uniform(servers, ServerConfig::era_default());
        let t = Instant::now();
        let network = metro_network(servers);
        let topology = t.elapsed().as_secs_f64();

        let users = era_users(&mut user_rng, UserMix::Stratified);

        let t = Instant::now();
        let popularity = ZipfSampler::new(p.documents, ZIPF_S);
        let requests: Vec<Request> = (0..p.requests)
            .map(|n| Request {
                user: (n % CLIENT_POOL) as u32,
                document: DocumentId(popularity.sample(&mut request_rng) as u64 + 1),
                arrival_ms: 0,
            })
            .collect();
        let schedule = t.elapsed().as_secs_f64();

        World {
            catalog,
            farm,
            network,
            cost: CostModel::era_default(),
            users,
            requests,
            faults: FaultPlan::none(),
            classes,
            stages: StageSeconds {
                corpus,
                topology,
                schedule,
                world: t_world.elapsed().as_secs_f64(),
            },
        }
    }

    /// The negotiation context every workload starts from: the paper's
    /// SNS-then-OIF order, guaranteed service, streaming on, no channels.
    pub fn ctx(&self) -> NegotiationContext<'_> {
        NegotiationContext {
            catalog: &self.catalog,
            farm: &self.farm,
            network: &self.network,
            cost_model: &self.cost,
            strategy: ClassificationStrategy::SnsThenOif,
            guarantee: Guarantee::Guaranteed,
            enumeration_cap: 500_000,
            jitter_buffer_ms: 2_000,
            prune_dominated: false,
            streaming: StreamingMode::Auto,
            recorder: None,
            explain: false,
        }
    }

    pub fn user(&self, request: &Request) -> (&ClientMachine, &UserProfile) {
        let (machine, profile) = &self.users[request.user as usize];
        (machine, profile)
    }

    /// The request sequence as broker session specs, in arrival order.
    pub fn specs(&self) -> Vec<SessionSpec<'_>> {
        self.requests
            .iter()
            .map(|r| {
                let (client, profile) = self.user(r);
                SessionSpec {
                    client,
                    document: r.document,
                    profile,
                    arrival_ms: r.arrival_ms,
                    hold_ms: Some(HOLD_MS),
                }
            })
            .collect()
    }
}

/// Prints click-corpus articles into one catalog. It follows the
/// `CorpusBuilder` article shape (clip + narration + caption + optional
/// photo, sizes from the same codec model) but chooses the recipe per
/// article, which the builder cannot.
struct ArticlePress<'s> {
    catalog: Catalog,
    servers: &'s [ServerId],
    next_mono: u64,
    next_variant: u64,
}

impl<'s> ArticlePress<'s> {
    fn new(servers: &'s [ServerId]) -> Self {
        ArticlePress {
            catalog: Catalog::new(),
            servers,
            next_mono: 1,
            next_variant: 1,
        }
    }

    fn mono(&mut self, kind: MediaKind, title: String, secs: u64) -> Monomedia {
        let id = MonomediaId(self.next_mono);
        self.next_mono += 1;
        Monomedia::new(id, kind, title).with_duration_secs(secs)
    }

    #[allow(clippy::too_many_arguments)]
    fn variant(
        &mut self,
        monomedia: MonomediaId,
        format: Format,
        qos: MediaQos,
        blocks: BlockStats,
        blocks_per_second: u32,
        file_bytes: u64,
        server: ServerId,
    ) {
        let id = VariantId(self.next_variant);
        self.next_variant += 1;
        self.catalog
            .add_variant(Variant {
                id,
                monomedia,
                format,
                qos,
                blocks,
                blocks_per_second,
                file_bytes,
                server,
            })
            .expect("variant ids are fresh and the monomedia was just added");
    }

    fn discrete(
        &mut self,
        mono: MonomediaId,
        format: Format,
        qos: MediaQos,
        bytes: u64,
        rng: &mut StreamRng,
    ) {
        let server = *rng.choose(self.servers);
        self.variant(
            mono,
            format,
            qos,
            BlockStats::new(bytes, bytes),
            0,
            bytes,
            server,
        );
    }

    fn print(&mut self, id: DocumentId, class: ArticleClass, rng: &mut StreamRng) {
        let video_ladder = standard_video_ladder();
        let audio_ladder = standard_audio_ladder();
        // (video rungs, audio rungs, extra copies, photo?, French?, extras)
        let (n_video, n_audio, copies, photo, french, extras) = match class {
            ArticleClass::Standard => (
                rng.range_u64(2, 5) as usize,
                rng.range_u64(1, 3) as usize,
                (1, 3),
                rng.chance(0.5),
                rng.chance(0.4),
                0,
            ),
            ArticleClass::Rich => (
                video_ladder.len(),
                audio_ladder.len(),
                (2, 3),
                true,
                true,
                0,
            ),
            // Clip and narration in two variants each, plus the caption
            // and seven discrete extras: ten components, 2¹⁰ offers.
            ArticleClass::Wide => (2, 2, (0, 0), false, false, 7),
        };
        let d = id.0;
        let secs = rng.range_u64(60, 300);
        let video = self.mono(MediaKind::Video, format!("clip {d}"), secs);
        let audio = self.mono(MediaKind::Audio, format!("narration {d}"), secs);
        let caption = self.mono(MediaKind::Text, format!("caption {d}"), secs.min(30));
        let mut components = vec![video.clone(), audio.clone(), caption.clone()];
        let mut temporal = vec![
            TemporalConstraint::simultaneous(video.id, audio.id),
            TemporalConstraint::offset(video.id, caption.id, 0),
        ];
        let mut stills = Vec::new();
        let mut sidebars = Vec::new();
        if photo {
            stills.push(self.mono(MediaKind::Image, format!("photo {d}"), secs.min(20)));
        }
        for e in 0..extras {
            // Discrete extras cost the client no decode budget, which a
            // workstation would refuse ten continuous streams on.
            if e % 2 == 0 {
                stills.push(self.mono(MediaKind::Image, format!("photo {d}.{e}"), secs.min(20)));
            } else {
                sidebars.push(self.mono(MediaKind::Text, format!("sidebar {d}.{e}"), secs.min(30)));
            }
        }
        for (i, m) in stills.iter().chain(&sidebars).enumerate() {
            temporal.push(TemporalConstraint::offset(
                video.id,
                m.id,
                2_000 * (i as u64 + 1),
            ));
            components.push(m.clone());
        }
        self.catalog
            .add_document(Document::multimedia(
                id,
                format!("article {d}"),
                components,
                temporal,
                vec![],
            ))
            .expect("document ids are fresh");

        let mut rungs: Vec<usize> = (0..video_ladder.len()).collect();
        rng.shuffle(&mut rungs);
        if class == ArticleClass::Wide {
            // Rungs every era machine can decode, so the product stays 2¹⁰.
            rungs = vec![3, 4];
        }
        for &r in rungs.iter().take(n_video) {
            let rung = video_ladder[r];
            let avg = video_frame_bytes(&rung.qos, rung.compression);
            let fps = rung.qos.frame_rate.fps();
            for copy in 0..=rng.range_u64(copies.0, copies.1) as usize {
                let max = (avg as f64 * rng.range_f64(1.5, 3.0)) as u64;
                let server = self.servers
                    [(rng.below(self.servers.len() as u64) as usize + copy) % self.servers.len()];
                self.variant(
                    video.id,
                    rung.format,
                    MediaQos::Video(rung.qos),
                    BlockStats::new(max, avg),
                    fps,
                    avg * u64::from(fps) * secs,
                    server,
                );
            }
        }

        let mut arungs: Vec<usize> = (0..audio_ladder.len()).collect();
        rng.shuffle(&mut arungs);
        for &r in arungs.iter().take(n_audio) {
            let rung = audio_ladder[r];
            let bytes = audio_sample_bytes(&rung);
            let hz = rung.quality.sample_rate().hz();
            for language in [Language::English, Language::French] {
                if language == Language::French && !french {
                    continue;
                }
                let server = *rng.choose(self.servers);
                self.variant(
                    audio.id,
                    rung.format,
                    MediaQos::Audio(AudioQos {
                        quality: rung.quality,
                        language,
                    }),
                    BlockStats::new(bytes, bytes),
                    hz,
                    bytes * u64::from(hz) * secs,
                    server,
                );
            }
        }

        for text in std::iter::once(&caption).chain(&sidebars) {
            for format in [Format::PlainText, Format::Html] {
                let bytes = rng.range_u64(2_000, 12_000);
                let qos = MediaQos::Text(TextQos {
                    language: Language::English,
                });
                self.discrete(text.id, format, qos, bytes, rng);
            }
        }
        for still in &stills {
            for (px, color) in [(640u32, ColorDepth::Color), (320, ColorDepth::Grey)] {
                let resolution = Resolution::new(px);
                // ~10:1 JPEG.
                let bytes = (u64::from(px)
                    * u64::from(resolution.lines())
                    * u64::from(color.bits_per_pixel())
                    / 80)
                    .max(1);
                let qos = MediaQos::Image(ImageQos { color, resolution });
                self.discrete(still.id, Format::Jpeg, qos, bytes, rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_are_a_function_of_the_seed() {
        let p = MetroParams {
            sessions: 2_000,
            streams_per_server: 12,
            fault_windows: 4,
            users: UserMix::Stratified,
        };
        let (a, b, c) = (
            World::metro(7, &p),
            World::metro(7, &p),
            World::metro(8, &p),
        );
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.faults, b.faults);
        assert_ne!(a.requests, c.requests);
        assert!(a
            .requests
            .windows(2)
            .all(|w| w[0].arrival_ms <= w[1].arrival_ms));

        let p = ClickParams {
            documents: 200,
            requests: 500,
        };
        let (a, b) = (World::click(7, &p), World::click(7, &p));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.catalog.variant_count(), b.catalog.variant_count());
    }

    #[test]
    fn overload_runs_on_a_tenth_of_the_servers() {
        let healthy = World::metro(
            1,
            &MetroParams {
                sessions: 40_000,
                streams_per_server: 12,
                fault_windows: 0,
                users: UserMix::Stratified,
            },
        );
        let starved = World::metro(
            1,
            &MetroParams {
                sessions: 40_000,
                streams_per_server: 120,
                fault_windows: 16,
                users: UserMix::Stratified,
            },
        );
        assert_eq!(healthy.farm.len(), 111);
        assert_eq!(starved.farm.len(), 11);
        assert_eq!(starved.faults.windows.len(), 16);
    }

    #[test]
    fn click_corpus_mixes_the_three_classes_and_wide_articles_have_ten_components() {
        let w = World::click(
            3,
            &ClickParams {
                documents: 400,
                requests: 10,
            },
        );
        let count = |c| w.classes.iter().filter(|&&x| x == c).count();
        assert!(count(ArticleClass::Standard) > 240);
        assert!(count(ArticleClass::Rich) > 60);
        assert!(count(ArticleClass::Wide) > 5);
        for (i, class) in w.classes.iter().enumerate() {
            let id = DocumentId(i as u64 + 1);
            let doc = w.catalog.document(id).expect("every id was printed");
            let per_mono = w.catalog.variants_of_document(id).expect("known document");
            match class {
                ArticleClass::Wide => {
                    assert_eq!(doc.monomedia().len(), 10);
                    assert!(doc.monomedia().len() > nod_qosneg::engine::MAX_STREAM_COMPONENTS);
                    assert!(per_mono.iter().all(|(_, v)| v.len() == 2));
                }
                ArticleClass::Rich => {
                    let offers: usize = per_mono.iter().map(|(_, v)| v.len()).product();
                    assert!(offers >= 768, "rich article {id} has only {offers} offers");
                }
                ArticleClass::Standard => assert!((3..=4).contains(&doc.monomedia().len())),
            }
        }
    }
}
