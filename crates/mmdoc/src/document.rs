//! Documents and monomedia (paper §2, Figure 1).
//!
//! Figure 1's OMT model: a *document* is either a monomedia or a
//! multimedia; a multimedia aggregates one or more monomedia and carries
//! spatial and temporal synchronization constraints as attributes.

use std::collections::HashMap;

use crate::ids::{DocumentId, MonomediaId};
use crate::media::MediaKind;
use crate::temporal::{resolve_schedule, ScheduleError, SpatialRegion, TemporalConstraint};

/// One monomedia object: a logical media element independent of its stored
/// variants (which live in the MM database).
#[derive(Debug, Clone, PartialEq)]
pub struct Monomedia {
    /// Unique id.
    pub id: MonomediaId,
    /// The medium.
    pub kind: MediaKind,
    /// Human-readable title ("anchor shot", "narration", …).
    pub title: String,
    /// Presentation duration in milliseconds. Discrete media (text, image,
    /// graphic) use their on-screen display period.
    pub duration_ms: u64,
}

nod_simcore::json_struct!(Monomedia {
    id,
    kind,
    title,
    duration_ms
});

impl Monomedia {
    /// A monomedia with zero duration (set it with
    /// [`Monomedia::with_duration_secs`] / [`with_duration_ms`](Self::with_duration_ms)).
    pub fn new(id: MonomediaId, kind: MediaKind, title: impl Into<String>) -> Self {
        Monomedia {
            id,
            kind,
            title: title.into(),
            duration_ms: 0,
        }
    }

    /// Builder: set the duration in seconds.
    pub fn with_duration_secs(mut self, secs: u64) -> Self {
        self.duration_ms = secs * 1_000;
        self
    }

    /// Builder: set the duration in milliseconds.
    pub fn with_duration_ms(mut self, ms: u64) -> Self {
        self.duration_ms = ms;
        self
    }
}

/// A multimedia aggregation with its synchronization attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Multimedia {
    /// Component monomedia (aggregation links of Figure 1).
    pub components: Vec<Monomedia>,
    /// Temporal synchronization constraints.
    pub temporal: Vec<TemporalConstraint>,
    /// Spatial layout constraints.
    pub spatial: Vec<SpatialRegion>,
}

nod_simcore::json_struct!(Multimedia {
    components,
    temporal,
    spatial
});

/// A document: the unit the user selects and the negotiation procedure
/// treats atomically.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Unique id.
    pub id: DocumentId,
    /// Title shown in the news-on-demand article list.
    pub title: String,
    /// Monomedia or multimedia content.
    pub content: DocumentContent,
}

/// The two document forms of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub enum DocumentContent {
    /// A document that is a single monomedia object.
    Mono(Monomedia),
    /// A composed multimedia document.
    Multi(Multimedia),
}

nod_simcore::json_struct!(Document { id, title, content });

impl nod_simcore::json::ToJson for DocumentContent {
    fn to_json(&self) -> nod_simcore::Json {
        use nod_simcore::json::Json;
        match self {
            DocumentContent::Mono(m) => Json::tagged("Mono", m.to_json()),
            DocumentContent::Multi(mm) => Json::tagged("Multi", mm.to_json()),
        }
    }
}

impl nod_simcore::json::FromJson for DocumentContent {
    fn from_json(v: &nod_simcore::Json) -> Result<Self, nod_simcore::JsonError> {
        use nod_simcore::json::FromJson;
        let (tag, inner) = v.as_tagged()?;
        match tag {
            "Mono" => Ok(DocumentContent::Mono(FromJson::from_json(inner)?)),
            "Multi" => Ok(DocumentContent::Multi(FromJson::from_json(inner)?)),
            other => Err(nod_simcore::JsonError(format!(
                "unknown DocumentContent variant `{other}`"
            ))),
        }
    }
}

impl Document {
    /// A monomedia document.
    pub fn single(id: DocumentId, title: impl Into<String>, mono: Monomedia) -> Self {
        Document {
            id,
            title: title.into(),
            content: DocumentContent::Mono(mono),
        }
    }

    /// A multimedia document.
    ///
    /// # Panics
    /// Panics on an empty component list (Figure 1 requires one or more) or
    /// duplicate monomedia ids.
    pub fn multimedia(
        id: DocumentId,
        title: impl Into<String>,
        components: Vec<Monomedia>,
        temporal: Vec<TemporalConstraint>,
        spatial: Vec<SpatialRegion>,
    ) -> Self {
        assert!(
            !components.is_empty(),
            "a multimedia document aggregates one or more monomedia"
        );
        let mut seen = std::collections::HashSet::new();
        for m in &components {
            assert!(seen.insert(m.id), "duplicate monomedia id {}", m.id);
        }
        Document {
            id,
            title: title.into(),
            content: DocumentContent::Multi(Multimedia {
                components,
                temporal,
                spatial,
            }),
        }
    }

    /// All monomedia components (a single-element slice for a monomedia
    /// document).
    pub fn monomedia(&self) -> &[Monomedia] {
        match &self.content {
            DocumentContent::Mono(m) => std::slice::from_ref(m),
            DocumentContent::Multi(mm) => &mm.components,
        }
    }

    /// Look up one component.
    pub fn component(&self, id: MonomediaId) -> Option<&Monomedia> {
        self.monomedia().iter().find(|m| m.id == id)
    }

    /// Is this a multimedia (composed) document?
    pub fn is_multimedia(&self) -> bool {
        matches!(self.content, DocumentContent::Multi(_))
    }

    /// The temporal constraints (empty for monomedia documents).
    pub fn temporal_constraints(&self) -> &[TemporalConstraint] {
        match &self.content {
            DocumentContent::Mono(_) => &[],
            DocumentContent::Multi(mm) => &mm.temporal,
        }
    }

    /// Resolve the document's playout schedule: absolute start offset (ms)
    /// of every component.
    pub fn schedule(&self) -> Result<HashMap<MonomediaId, u64>, ScheduleError> {
        let durations: HashMap<MonomediaId, u64> = self
            .monomedia()
            .iter()
            .map(|m| (m.id, m.duration_ms))
            .collect();
        resolve_schedule(&durations, self.temporal_constraints())
    }

    /// Total presentation length: the latest component end instant (ms).
    pub fn total_duration_ms(&self) -> Result<u64, ScheduleError> {
        let starts = self.schedule()?;
        Ok(self
            .monomedia()
            .iter()
            .map(|m| starts[&m.id] + m.duration_ms)
            .max()
            .unwrap_or(0))
    }

    /// Components of a given medium.
    pub fn components_of(&self, kind: MediaKind) -> Vec<&Monomedia> {
        self.monomedia().iter().filter(|m| m.kind == kind).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn news_article() -> Document {
        // The canonical fixture: a news article with a video clip, a
        // synchronized narration, and a caption shown 5 s in.
        let video =
            Monomedia::new(MonomediaId(1), MediaKind::Video, "anchor shot").with_duration_secs(120);
        let audio =
            Monomedia::new(MonomediaId(2), MediaKind::Audio, "narration").with_duration_secs(120);
        let caption =
            Monomedia::new(MonomediaId(3), MediaKind::Text, "caption").with_duration_secs(20);
        Document::multimedia(
            DocumentId(1),
            "flood in the valley",
            vec![video, audio, caption],
            vec![
                TemporalConstraint::simultaneous(MonomediaId(1), MonomediaId(2)),
                TemporalConstraint::offset(MonomediaId(1), MonomediaId(3), 5_000),
            ],
            vec![SpatialRegion {
                monomedia: MonomediaId(1),
                x: 0,
                y: 0,
                width: 640,
                height: 480,
            }],
        )
    }

    #[test]
    fn monomedia_document_has_one_component() {
        let doc = Document::single(
            DocumentId(9),
            "weather map",
            Monomedia::new(MonomediaId(1), MediaKind::Image, "map").with_duration_secs(30),
        );
        assert!(!doc.is_multimedia());
        assert_eq!(doc.monomedia().len(), 1);
        assert!(doc.temporal_constraints().is_empty());
        assert_eq!(doc.total_duration_ms().unwrap(), 30_000);
    }

    #[test]
    fn multimedia_document_structure() {
        let doc = news_article();
        assert!(doc.is_multimedia());
        assert_eq!(doc.monomedia().len(), 3);
        assert_eq!(doc.components_of(MediaKind::Video).len(), 1);
        assert_eq!(doc.components_of(MediaKind::Graphic).len(), 0);
        assert!(doc.component(MonomediaId(2)).is_some());
        assert!(doc.component(MonomediaId(99)).is_none());
    }

    #[test]
    fn schedule_resolution() {
        let doc = news_article();
        let s = doc.schedule().unwrap();
        assert_eq!(s[&MonomediaId(1)], 0);
        assert_eq!(s[&MonomediaId(2)], 0);
        assert_eq!(s[&MonomediaId(3)], 5_000);
        assert_eq!(doc.total_duration_ms().unwrap(), 120_000);
    }

    #[test]
    #[should_panic(expected = "one or more monomedia")]
    fn empty_multimedia_rejected() {
        Document::multimedia(DocumentId(1), "empty", vec![], vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate monomedia id")]
    fn duplicate_components_rejected() {
        let m = Monomedia::new(MonomediaId(1), MediaKind::Video, "x");
        Document::multimedia(DocumentId(1), "dup", vec![m.clone(), m], vec![], vec![]);
    }

    #[test]
    fn builder_durations() {
        let m = Monomedia::new(MonomediaId(4), MediaKind::Audio, "jingle").with_duration_ms(1_500);
        assert_eq!(m.duration_ms, 1_500);
    }

    #[test]
    fn serde_round_trip() {
        let doc = news_article();
        let json = nod_simcore::json::to_string(&doc);
        let back: Document = nod_simcore::json::from_str(&json).unwrap();
        assert_eq!(back, doc);
    }
}
