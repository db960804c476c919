//! The playout timeline: document schedule × selected variants.

use std::collections::HashMap;

use nod_mmdoc::{Document, MonomediaId, ScheduleError, Variant, VariantId};

/// One scheduled stream: a monomedia played from a specific variant.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// The monomedia component.
    pub monomedia: MonomediaId,
    /// The variant chosen by negotiation.
    pub variant: VariantId,
    /// Absolute start offset within the presentation, ms.
    pub start_ms: u64,
    /// Presentation duration, ms.
    pub duration_ms: u64,
    /// Sustained bit rate of the stream while active (bits/s).
    pub avg_bit_rate: u64,
}

impl TimelineEntry {
    /// End instant, ms.
    pub fn end_ms(&self) -> u64 {
        self.start_ms + self.duration_ms
    }

    /// Is the stream active at `t` ms into the presentation?
    pub fn active_at(&self, t_ms: u64) -> bool {
        t_ms >= self.start_ms && t_ms < self.end_ms()
    }
}

/// Timeline construction failures.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineError {
    /// The document's temporal constraints do not resolve.
    Schedule(ScheduleError),
    /// No variant was supplied for a component.
    MissingVariant(MonomediaId),
    /// A supplied variant belongs to a different monomedia.
    WrongMonomedia {
        /// The component being scheduled.
        expected: MonomediaId,
        /// The monomedia the variant actually represents.
        got: MonomediaId,
    },
}

impl std::fmt::Display for TimelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimelineError::Schedule(e) => write!(f, "{e}"),
            TimelineError::MissingVariant(id) => write!(f, "no variant selected for {id}"),
            TimelineError::WrongMonomedia { expected, got } => {
                write!(f, "variant for {got} supplied where {expected} expected")
            }
        }
    }
}

impl std::error::Error for TimelineError {}

/// The full presentation plan of a negotiated document.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    entries: Vec<TimelineEntry>,
    total_ms: u64,
}

impl Timeline {
    /// Build a timeline from the document's resolved schedule and the
    /// negotiated variant per component.
    pub fn build(
        document: &Document,
        selected: &HashMap<MonomediaId, &Variant>,
    ) -> Result<Timeline, TimelineError> {
        let starts = document.schedule().map_err(TimelineError::Schedule)?;
        let mut entries = Vec::with_capacity(document.monomedia().len());
        for m in document.monomedia() {
            let v = selected
                .get(&m.id)
                .ok_or(TimelineError::MissingVariant(m.id))?;
            if v.monomedia != m.id {
                return Err(TimelineError::WrongMonomedia {
                    expected: m.id,
                    got: v.monomedia,
                });
            }
            entries.push(TimelineEntry {
                monomedia: m.id,
                variant: v.id,
                start_ms: starts[&m.id],
                duration_ms: m.duration_ms,
                avg_bit_rate: v.avg_bit_rate(),
            });
        }
        entries.sort_by_key(|e| (e.start_ms, e.monomedia));
        let total_ms = entries.iter().map(TimelineEntry::end_ms).max().unwrap_or(0);
        Ok(Timeline { entries, total_ms })
    }

    /// All entries, ordered by start time.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// Total presentation length, ms.
    pub fn total_ms(&self) -> u64 {
        self.total_ms
    }

    /// Streams active at instant `t` ms.
    pub fn active_at(&self, t_ms: u64) -> Vec<&TimelineEntry> {
        self.entries.iter().filter(|e| e.active_at(t_ms)).collect()
    }

    /// Aggregate bandwidth demand at instant `t` ms (bits/s) — the input to
    /// capacity planning.
    pub fn demand_at(&self, t_ms: u64) -> u64 {
        self.active_at(t_ms).iter().map(|e| e.avg_bit_rate).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nod_mmdoc::prelude::*;

    fn doc_and_variants() -> (Document, Vec<Variant>) {
        let video =
            Monomedia::new(MonomediaId(1), MediaKind::Video, "clip").with_duration_secs(100);
        let audio =
            Monomedia::new(MonomediaId(2), MediaKind::Audio, "sound").with_duration_secs(100);
        let doc = Document::multimedia(
            DocumentId(1),
            "article",
            vec![video, audio],
            vec![TemporalConstraint::simultaneous(
                MonomediaId(1),
                MonomediaId(2),
            )],
            vec![],
        );
        let v1 = Variant {
            id: VariantId(10),
            monomedia: MonomediaId(1),
            format: Format::Mpeg1,
            qos: MediaQos::Video(VideoQos {
                color: ColorDepth::Color,
                resolution: Resolution::TV,
                frame_rate: FrameRate::TV,
            }),
            blocks: BlockStats::new(12_000, 6_000),
            blocks_per_second: 25,
            file_bytes: 6_000 * 25 * 100,
            server: ServerId(0),
        };
        let v2 = Variant {
            id: VariantId(11),
            monomedia: MonomediaId(2),
            format: Format::PcmMulaw,
            qos: MediaQos::Audio(AudioQos {
                quality: AudioQuality::Telephone,
                language: Language::English,
            }),
            blocks: BlockStats::new(1, 1),
            blocks_per_second: 8_000,
            file_bytes: 8_000 * 100,
            server: ServerId(0),
        };
        (doc, vec![v1, v2])
    }

    fn build(doc: &Document, vars: &[Variant]) -> Timeline {
        let map: HashMap<MonomediaId, &Variant> = vars.iter().map(|v| (v.monomedia, v)).collect();
        Timeline::build(doc, &map).unwrap()
    }

    #[test]
    fn builds_ordered_entries() {
        let (doc, vars) = doc_and_variants();
        let t = build(&doc, &vars);
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.total_ms(), 100_000);
        assert!(t
            .entries()
            .windows(2)
            .all(|w| w[0].start_ms <= w[1].start_ms));
    }

    #[test]
    fn demand_aggregates_active_streams() {
        let (doc, vars) = doc_and_variants();
        let t = build(&doc, &vars);
        let video_bps = 6_000 * 8 * 25;
        let audio_bps = 8 * 8_000;
        assert_eq!(t.demand_at(0), video_bps + audio_bps);
        assert_eq!(t.demand_at(100_000), 0); // past the end
        assert_eq!(t.active_at(50_000).len(), 2);
    }

    #[test]
    fn missing_variant_detected() {
        let (doc, vars) = doc_and_variants();
        let map: HashMap<MonomediaId, &Variant> =
            vars.iter().take(1).map(|v| (v.monomedia, v)).collect();
        assert_eq!(
            Timeline::build(&doc, &map).unwrap_err(),
            TimelineError::MissingVariant(MonomediaId(2))
        );
    }

    #[test]
    fn wrong_monomedia_detected() {
        let (doc, vars) = doc_and_variants();
        let mut map: HashMap<MonomediaId, &Variant> = HashMap::new();
        map.insert(MonomediaId(1), &vars[0]);
        map.insert(MonomediaId(2), &vars[0]); // video variant for the audio slot
        match Timeline::build(&doc, &map).unwrap_err() {
            TimelineError::WrongMonomedia { expected, got } => {
                assert_eq!(expected, MonomediaId(2));
                assert_eq!(got, MonomediaId(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn entry_activity_window_is_half_open() {
        let e = TimelineEntry {
            monomedia: MonomediaId(1),
            variant: VariantId(1),
            start_ms: 1_000,
            duration_ms: 2_000,
            avg_bit_rate: 100,
        };
        assert!(!e.active_at(999));
        assert!(e.active_at(1_000));
        assert!(e.active_at(2_999));
        assert!(!e.active_at(3_000));
        assert_eq!(e.end_ms(), 3_000);
    }
}
