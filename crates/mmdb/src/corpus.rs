//! Synthetic news-article corpora.
//!
//! The CITR prototype's article base is unavailable, so experiments run on
//! synthetic corpora with the same shape: each article aggregates a video
//! clip, a synchronized narration, a caption and optionally still images;
//! each monomedia is stored in several variants spanning a quality ladder
//! (coding format × color × resolution × frame rate / audio quality ×
//! language) replicated across a server farm.
//!
//! Block sizes follow a first-order codec model: an uncompressed frame is
//! `pixels/line × lines × bits-per-pixel`, divided by a per-codec
//! compression factor; the peak-to-mean burstiness of VBR codings is drawn
//! from a small range. The absolute numbers land in the mid-1990s regime
//! the paper operated in (MPEG-1 at ~1.2 Mb/s for TV quality).

use nod_mmdoc::prelude::*;
use nod_simcore::StreamRng;

use crate::catalog::Catalog;

/// One rung of the video quality ladder.
#[derive(Debug, Clone, Copy)]
pub struct VideoRung {
    /// Coding format.
    pub format: Format,
    /// Delivered QoS.
    pub qos: VideoQos,
    /// Compression factor vs. raw (higher = smaller files).
    pub compression: f64,
}

/// The standard video ladder used by corpora and tests: from a black&white
/// H.261 thumbnail stream up to a super-color MPEG-2 feed.
pub fn standard_video_ladder() -> Vec<VideoRung> {
    fn v(color: ColorDepth, px: u32, fps: u32) -> VideoQos {
        VideoQos {
            color,
            resolution: Resolution::new(px),
            frame_rate: FrameRate::new(fps),
        }
    }
    vec![
        VideoRung {
            format: Format::H261,
            qos: v(ColorDepth::BlackWhite, 176, 10),
            compression: 60.0,
        },
        VideoRung {
            format: Format::H261,
            qos: v(ColorDepth::Grey, 352, 15),
            compression: 55.0,
        },
        VideoRung {
            format: Format::Mpeg1,
            qos: v(ColorDepth::Grey, 640, 25),
            compression: 45.0,
        },
        VideoRung {
            format: Format::Mpeg1,
            qos: v(ColorDepth::Color, 352, 25),
            compression: 40.0,
        },
        VideoRung {
            format: Format::Mpeg1,
            qos: v(ColorDepth::Color, 640, 25),
            compression: 40.0,
        },
        VideoRung {
            format: Format::Mjpeg,
            qos: v(ColorDepth::Color, 640, 25),
            compression: 12.0,
        },
        VideoRung {
            format: Format::Mpeg2,
            qos: v(ColorDepth::Color, 960, 30),
            compression: 45.0,
        },
        VideoRung {
            format: Format::Mpeg2,
            qos: v(ColorDepth::SuperColor, 1280, 30),
            compression: 45.0,
        },
    ]
}

/// Average frame size (bytes) for a rung at a given model.
pub fn video_frame_bytes(qos: &VideoQos, compression: f64) -> u64 {
    let raw_bits = qos.resolution.pixels_per_line() as u64
        * qos.resolution.lines() as u64
        * qos.color.bits_per_pixel() as u64;
    ((raw_bits as f64 / 8.0 / compression).max(64.0)) as u64
}

/// Audio rung: quality × format with its per-sample size.
#[derive(Debug, Clone, Copy)]
pub struct AudioRung {
    /// Coding format.
    pub format: Format,
    /// Delivered quality.
    pub quality: AudioQuality,
    /// Compression vs. linear PCM at that quality.
    pub compression: f64,
}

/// The standard audio ladder: telephone µ-law, ADPCM radio, PCM CD.
pub fn standard_audio_ladder() -> Vec<AudioRung> {
    vec![
        AudioRung {
            format: Format::PcmMulaw,
            quality: AudioQuality::Telephone,
            compression: 1.0,
        },
        AudioRung {
            format: Format::Adpcm,
            quality: AudioQuality::Radio,
            compression: 4.0,
        },
        AudioRung {
            format: Format::MpegAudio,
            quality: AudioQuality::Cd,
            compression: 6.0,
        },
        AudioRung {
            format: Format::PcmLinear,
            quality: AudioQuality::Cd,
            compression: 1.0,
        },
    ]
}

/// Per-sample stored size (bytes, ≥1) for an audio rung.
pub fn audio_sample_bytes(rung: &AudioRung) -> u64 {
    let raw = (rung.quality.sample_bits() * rung.quality.channels()) as f64 / 8.0;
    ((raw / rung.compression).ceil()).max(1.0) as u64
}

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusParams {
    /// Number of articles to generate.
    pub documents: usize,
    /// The server farm to spread variants across.
    pub servers: Vec<ServerId>,
    /// How many rungs of the video ladder each clip is stored in.
    pub video_variants: (usize, usize),
    /// How many rungs of the audio ladder each narration is stored in.
    pub audio_variants: (usize, usize),
    /// Extra replicas of each variant on other servers (copies are
    /// variants too, per the paper).
    pub replicas: (usize, usize),
    /// Article duration range, seconds.
    pub duration_secs: (u64, u64),
    /// Probability an article carries a still image.
    pub image_probability: f64,
    /// Probability the narration also exists in French.
    pub french_probability: f64,
}

impl Default for CorpusParams {
    fn default() -> Self {
        CorpusParams {
            documents: 50,
            servers: (0..4).map(ServerId).collect(),
            video_variants: (2, 5),
            audio_variants: (1, 3),
            replicas: (0, 1),
            duration_secs: (60, 300),
            image_probability: 0.5,
            french_probability: 0.4,
        }
    }
}

/// Builds synthetic corpora into a [`Catalog`].
#[derive(Debug, Clone)]
pub struct CorpusBuilder {
    params: CorpusParams,
    next_mono: u64,
    next_variant: u64,
}

impl CorpusBuilder {
    /// A builder with the given parameters.
    ///
    /// # Panics
    /// Panics if the server list is empty or any range is inverted.
    pub fn new(params: CorpusParams) -> Self {
        assert!(
            !params.servers.is_empty(),
            "corpus needs at least one server"
        );
        assert!(params.video_variants.0 >= 1 && params.video_variants.0 <= params.video_variants.1);
        assert!(params.audio_variants.0 >= 1 && params.audio_variants.0 <= params.audio_variants.1);
        assert!(params.duration_secs.0 >= 1 && params.duration_secs.0 <= params.duration_secs.1);
        CorpusBuilder {
            params,
            next_mono: 1,
            next_variant: 1,
        }
    }

    fn mono_id(&mut self) -> MonomediaId {
        let id = MonomediaId(self.next_mono);
        self.next_mono += 1;
        id
    }

    fn variant_id(&mut self) -> VariantId {
        let id = VariantId(self.next_variant);
        self.next_variant += 1;
        id
    }

    /// Generate the corpus. Deterministic for a given RNG stream.
    pub fn build(mut self, rng: &mut StreamRng) -> Catalog {
        let mut catalog = Catalog::new();
        let video_ladder = standard_video_ladder();
        let audio_ladder = standard_audio_ladder();
        let p = self.params.clone();

        for d in 0..p.documents {
            let secs = rng.range_u64(p.duration_secs.0, p.duration_secs.1);
            let video = Monomedia::new(self.mono_id(), MediaKind::Video, format!("clip {d}"))
                .with_duration_secs(secs);
            let audio = Monomedia::new(self.mono_id(), MediaKind::Audio, format!("narration {d}"))
                .with_duration_secs(secs);
            let caption = Monomedia::new(self.mono_id(), MediaKind::Text, format!("caption {d}"))
                .with_duration_secs(secs.min(30));
            let mut comps = vec![video.clone(), audio.clone(), caption.clone()];
            let mut temporal = vec![
                TemporalConstraint::simultaneous(video.id, audio.id),
                TemporalConstraint::offset(video.id, caption.id, 0),
            ];
            let image = if rng.chance(p.image_probability) {
                let img = Monomedia::new(self.mono_id(), MediaKind::Image, format!("photo {d}"))
                    .with_duration_secs(secs.min(20));
                temporal.push(TemporalConstraint::offset(video.id, img.id, 2_000));
                comps.push(img.clone());
                Some(img)
            } else {
                None
            };
            let doc = Document::multimedia(
                DocumentId(d as u64 + 1),
                format!("article {d}"),
                comps,
                temporal,
                vec![],
            );
            catalog.add_document(doc).expect("fresh ids");

            // Video variants: a random subset of ladder rungs, replicated.
            let n_rungs =
                rng.range_u64(p.video_variants.0 as u64, p.video_variants.1 as u64) as usize;
            let mut rungs: Vec<usize> = (0..video_ladder.len()).collect();
            rng.shuffle(&mut rungs);
            for &r in rungs.iter().take(n_rungs) {
                let rung = video_ladder[r];
                let replicas = rng.range_u64(p.replicas.0 as u64, p.replicas.1 as u64) as usize;
                for copy in 0..=replicas {
                    let v = self.make_video_variant(&rung, video.id, secs, rng, copy, &p);
                    catalog.add_variant(v).expect("fresh variant ids");
                }
            }
            // Audio variants, with optional French track.
            let n_audio =
                rng.range_u64(p.audio_variants.0 as u64, p.audio_variants.1 as u64) as usize;
            let mut arungs: Vec<usize> = (0..audio_ladder.len()).collect();
            rng.shuffle(&mut arungs);
            let has_french = rng.chance(p.french_probability);
            for &r in arungs.iter().take(n_audio) {
                let rung = audio_ladder[r];
                for lang in [Language::English, Language::French] {
                    if lang == Language::French && !has_french {
                        continue;
                    }
                    let v = self.make_audio_variant(&rung, audio.id, secs, lang, rng, &p);
                    catalog.add_variant(v).expect("fresh variant ids");
                }
            }
            // Caption: plain text + HTML, one server each.
            for (fmt, lang) in [
                (Format::PlainText, Language::English),
                (Format::Html, Language::English),
            ] {
                let bytes = rng.range_u64(2_000, 12_000);
                let v = Variant {
                    id: self.variant_id(),
                    monomedia: caption.id,
                    format: fmt,
                    qos: MediaQos::Text(TextQos { language: lang }),
                    blocks: BlockStats::new(bytes, bytes),
                    blocks_per_second: 0,
                    file_bytes: bytes,
                    server: *rng.choose(&p.servers),
                };
                catalog.add_variant(v).expect("fresh variant ids");
            }
            // Optional image in two resolutions.
            if let Some(img) = image {
                for (px, color) in [(640u32, ColorDepth::Color), (320, ColorDepth::Grey)] {
                    let res = Resolution::new(px);
                    let bytes =
                        (px as u64 * res.lines() as u64 * color.bits_per_pixel() as u64 / 8) / 10; // ~10:1 JPEG
                    let v = Variant {
                        id: self.variant_id(),
                        monomedia: img.id,
                        format: Format::Jpeg,
                        qos: MediaQos::Image(ImageQos {
                            color,
                            resolution: res,
                        }),
                        blocks: BlockStats::new(bytes.max(1), bytes.max(1)),
                        blocks_per_second: 0,
                        file_bytes: bytes.max(1),
                        server: *rng.choose(&p.servers),
                    };
                    catalog.add_variant(v).expect("fresh variant ids");
                }
            }
        }
        catalog
    }

    fn make_video_variant(
        &mut self,
        rung: &VideoRung,
        mono: MonomediaId,
        secs: u64,
        rng: &mut StreamRng,
        copy: usize,
        p: &CorpusParams,
    ) -> Variant {
        let avg = video_frame_bytes(&rung.qos, rung.compression);
        let burst = rng.range_f64(1.5, 3.0);
        let max = (avg as f64 * burst) as u64;
        let fps = rung.qos.frame_rate.fps();
        // Copies land on distinct servers where possible.
        let server =
            p.servers[(rng.below(p.servers.len() as u64) as usize + copy) % p.servers.len()];
        Variant {
            id: self.variant_id(),
            monomedia: mono,
            format: rung.format,
            qos: MediaQos::Video(rung.qos),
            blocks: BlockStats::new(max, avg),
            blocks_per_second: fps,
            file_bytes: avg * fps as u64 * secs,
            server,
        }
    }

    fn make_audio_variant(
        &mut self,
        rung: &AudioRung,
        mono: MonomediaId,
        secs: u64,
        language: Language,
        rng: &mut StreamRng,
        p: &CorpusParams,
    ) -> Variant {
        let bytes = audio_sample_bytes(rung);
        let hz = rung.quality.sample_rate().hz();
        Variant {
            id: self.variant_id(),
            monomedia: mono,
            format: rung.format,
            qos: MediaQos::Audio(AudioQos {
                quality: rung.quality,
                language,
            }),
            blocks: BlockStats::new(bytes, bytes),
            blocks_per_second: hz,
            file_bytes: bytes * hz as u64 * secs,
            server: *rng.choose(&p.servers),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus(seed: u64) -> Catalog {
        let mut rng = StreamRng::new(seed);
        CorpusBuilder::new(CorpusParams {
            documents: 10,
            ..CorpusParams::default()
        })
        .build(&mut rng)
    }

    #[test]
    fn corpus_has_requested_shape() {
        let c = small_corpus(1);
        assert_eq!(c.document_count(), 10);
        for doc in c.documents() {
            // video + audio + caption, maybe an image
            assert!((3..=4).contains(&doc.monomedia().len()));
            for m in doc.monomedia() {
                let variants = c.variants_of(m.id);
                assert_ne!(variants.len(), 0, "{} has no variants", m.id);
                for v in variants {
                    assert!(v.validate().is_ok());
                    assert_eq!(v.qos.kind(), m.kind);
                }
            }
            // Schedules must resolve.
            assert!(doc.total_duration_ms().unwrap() >= 60_000);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = small_corpus(7);
        let b = small_corpus(7);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
        let c = small_corpus(8);
        assert_ne!(a.to_json().unwrap(), c.to_json().unwrap());
    }

    #[test]
    fn mpeg1_tv_rate_is_megabit_class() {
        // Sanity-check the codec model: MPEG-1 color TV-resolution 25 fps
        // should land near the canonical ~1-2 Mb/s.
        let rung = standard_video_ladder()
            .into_iter()
            .find(|r| {
                r.format == Format::Mpeg1
                    && r.qos.color == ColorDepth::Color
                    && r.qos.resolution == Resolution::TV
            })
            .unwrap();
        let avg = video_frame_bytes(&rung.qos, rung.compression);
        let avg_bps = avg * 8 * 25;
        assert!(
            (500_000..4_000_000).contains(&avg_bps),
            "avg bitrate {avg_bps} out of the MPEG-1 regime"
        );
    }

    #[test]
    fn audio_sample_sizes() {
        for rung in standard_audio_ladder() {
            let b = audio_sample_bytes(&rung);
            assert!(b >= 1);
            if rung.format == Format::PcmLinear {
                assert_eq!(b, 4); // 16-bit stereo
            }
            if rung.format == Format::PcmMulaw {
                assert_eq!(b, 1);
            }
        }
    }

    #[test]
    fn ladder_orderings() {
        let ladder = standard_video_ladder();
        assert!(ladder.len() >= 6);
        // Every rung must produce a valid variant QoS within scale bounds.
        for r in &ladder {
            assert!(r.qos.resolution >= Resolution::MIN);
            assert!(r.qos.resolution <= Resolution::HDTV);
        }
    }

    #[test]
    fn variants_spread_across_servers() {
        let c = small_corpus(3);
        let servers: std::collections::HashSet<_> = c.variants().map(|v| v.server).collect();
        assert!(servers.len() >= 2, "corpus should use several servers");
    }
}
