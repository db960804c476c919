//! Inter-stream synchronization checking.
//!
//! The Ottawa synchronization component [Lam 94] keeps concurrently
//! playing monomedia aligned (lip sync between a clip and its narration).
//! We model each stream's *presentation skew* — how far its playout point
//! has drifted from the document clock — and check pairs of simultaneously
//! active streams against per-media-pair skew tolerances.
//!
//! The classic tolerances (Steinmetz's synchronization study, the same
//! experimental lineage as the paper's [Ste 90] constants): audio/video
//! lip sync ±80 ms; audio/text (captions) ±240 ms; anything else ±500 ms.

use std::collections::HashMap;

use nod_mmdoc::{MediaKind, MonomediaId};

use crate::timeline::Timeline;

/// Skew tolerance (ms) for a pair of media kinds.
pub fn skew_tolerance_ms(a: MediaKind, b: MediaKind) -> u64 {
    use MediaKind::*;
    match (a, b) {
        (Video, Audio) | (Audio, Video) => 80,
        (Audio, Text) | (Text, Audio) => 240,
        _ => 500,
    }
}

/// A detected synchronization violation at a document instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncViolation {
    /// First stream of the misaligned pair.
    pub a: MonomediaId,
    /// Second stream of the pair.
    pub b: MonomediaId,
    /// The skew observed, ms.
    pub skew_ms: u64,
    /// The tolerance it violated, ms.
    pub tolerance_ms: u64,
}

/// The per-stream playout clocks of a session at one wall instant.
///
/// `positions_ms` maps each active monomedia to its own presented
/// position; the synchronization component compares them pairwise.
#[derive(Debug, Clone, Default)]
pub struct SyncState {
    positions_ms: HashMap<MonomediaId, f64>,
    kinds: HashMap<MonomediaId, MediaKind>,
}

impl SyncState {
    /// An empty state.
    pub fn new() -> Self {
        SyncState::default()
    }

    /// Record a stream's playout position.
    pub fn set_position(&mut self, id: MonomediaId, kind: MediaKind, position_ms: f64) {
        assert!(
            position_ms.is_finite() && position_ms >= 0.0,
            "bad position"
        );
        self.positions_ms.insert(id, position_ms);
        self.kinds.insert(id, kind);
    }

    /// A stream's recorded position.
    pub fn position(&self, id: MonomediaId) -> Option<f64> {
        self.positions_ms.get(&id).copied()
    }

    /// Check every pair of streams active at document instant `t_ms` on
    /// `timeline` against the pairwise tolerances. Streams without a
    /// recorded position are skipped (not yet started).
    pub fn check(&self, timeline: &Timeline, t_ms: u64) -> Vec<SyncViolation> {
        let active: Vec<MonomediaId> = timeline
            .active_at(t_ms)
            .into_iter()
            .map(|e| e.monomedia)
            .filter(|id| self.positions_ms.contains_key(id))
            .collect();
        let mut violations = Vec::new();
        for (i, &a) in active.iter().enumerate() {
            for &b in &active[i + 1..] {
                let (ka, kb) = (self.kinds[&a], self.kinds[&b]);
                let tolerance = skew_tolerance_ms(ka, kb);
                let skew = (self.positions_ms[&a] - self.positions_ms[&b]).abs() as u64;
                if skew > tolerance {
                    violations.push(SyncViolation {
                        a,
                        b,
                        skew_ms: skew,
                        tolerance_ms: tolerance,
                    });
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nod_mmdoc::prelude::*;
    use std::collections::HashMap as Map;

    fn av_timeline() -> Timeline {
        let video = Monomedia::new(MonomediaId(1), MediaKind::Video, "clip").with_duration_secs(60);
        let audio =
            Monomedia::new(MonomediaId(2), MediaKind::Audio, "sound").with_duration_secs(60);
        let text =
            Monomedia::new(MonomediaId(3), MediaKind::Text, "caption").with_duration_secs(60);
        let doc = Document::multimedia(
            DocumentId(1),
            "doc",
            vec![video, audio, text],
            vec![
                TemporalConstraint::simultaneous(MonomediaId(1), MonomediaId(2)),
                TemporalConstraint::offset(MonomediaId(1), MonomediaId(3), 0),
            ],
            vec![],
        );
        let mk = |id: u64, mono: u64, kind: MediaKind| Variant {
            id: VariantId(id),
            monomedia: MonomediaId(mono),
            format: match kind {
                MediaKind::Video => Format::Mpeg1,
                MediaKind::Audio => Format::PcmMulaw,
                _ => Format::PlainText,
            },
            qos: match kind {
                MediaKind::Video => MediaQos::Video(VideoQos {
                    color: ColorDepth::Color,
                    resolution: Resolution::TV,
                    frame_rate: FrameRate::TV,
                }),
                MediaKind::Audio => MediaQos::Audio(AudioQos {
                    quality: AudioQuality::Telephone,
                    language: Language::English,
                }),
                _ => MediaQos::Text(TextQos {
                    language: Language::English,
                }),
            },
            blocks: BlockStats::new(6_000, 3_000),
            blocks_per_second: match kind {
                MediaKind::Video => 25,
                MediaKind::Audio => 8_000,
                _ => 0,
            },
            file_bytes: 3_000 * 25 * 60,
            server: ServerId(0),
        };
        let v1 = mk(1, 1, MediaKind::Video);
        let v2 = mk(2, 2, MediaKind::Audio);
        let v3 = mk(3, 3, MediaKind::Text);
        let selected: Map<MonomediaId, &Variant> = [
            (MonomediaId(1), &v1),
            (MonomediaId(2), &v2),
            (MonomediaId(3), &v3),
        ]
        .into();
        Timeline::build(&doc, &selected).unwrap()
    }

    #[test]
    fn aligned_streams_pass() {
        let t = av_timeline();
        let mut s = SyncState::new();
        s.set_position(MonomediaId(1), MediaKind::Video, 10_000.0);
        s.set_position(MonomediaId(2), MediaKind::Audio, 10_050.0); // 50 ms skew
        s.set_position(MonomediaId(3), MediaKind::Text, 10_200.0); // 200 ms vs audio
        assert!(s.check(&t, 10_000).is_empty());
    }

    #[test]
    fn lip_sync_violation_detected() {
        let t = av_timeline();
        let mut s = SyncState::new();
        s.set_position(MonomediaId(1), MediaKind::Video, 10_000.0);
        s.set_position(MonomediaId(2), MediaKind::Audio, 10_120.0); // 120 ms > 80 ms
        let v = s.check(&t, 10_000);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].tolerance_ms, 80);
        assert_eq!(v[0].skew_ms, 120);
    }

    #[test]
    fn tolerances_are_pairwise() {
        assert_eq!(skew_tolerance_ms(MediaKind::Video, MediaKind::Audio), 80);
        assert_eq!(skew_tolerance_ms(MediaKind::Audio, MediaKind::Video), 80);
        assert_eq!(skew_tolerance_ms(MediaKind::Text, MediaKind::Audio), 240);
        assert_eq!(skew_tolerance_ms(MediaKind::Video, MediaKind::Image), 500);
    }

    #[test]
    fn inactive_streams_are_ignored() {
        let t = av_timeline();
        let mut s = SyncState::new();
        // Only video has a recorded position; nothing to compare.
        s.set_position(MonomediaId(1), MediaKind::Video, 5_000.0);
        assert!(s.check(&t, 5_000).is_empty());
        // Past the end of the document, nothing is active.
        s.set_position(MonomediaId(2), MediaKind::Audio, 90_000.0);
        assert!(s.check(&t, 70_000).is_empty());
    }
}
