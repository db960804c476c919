//! The variant catalog: documents, variants, locations and block stats.

use std::collections::{BTreeMap, HashMap};

use nod_mmdoc::prelude::*;

/// Errors raised by catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A document with this id is already stored.
    DuplicateDocument(DocumentId),
    /// A variant with this id is already stored.
    DuplicateVariant(VariantId),
    /// The variant references a monomedia no stored document contains.
    UnknownMonomedia(MonomediaId),
    /// The variant failed internal validation (format/QoS mismatch, …).
    InvalidVariant(String),
    /// The variant's medium differs from its monomedia's medium.
    MediaMismatch {
        /// Offending variant.
        variant: VariantId,
        /// The monomedia's medium.
        expected: MediaKind,
        /// The variant's medium.
        got: MediaKind,
    },
    /// No document with this id.
    NoSuchDocument(DocumentId),
    /// Persistence failure.
    Io(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::DuplicateDocument(id) => write!(f, "duplicate document {id}"),
            CatalogError::DuplicateVariant(id) => write!(f, "duplicate variant {id}"),
            CatalogError::UnknownMonomedia(id) => {
                write!(f, "variant references unknown monomedia {id}")
            }
            CatalogError::InvalidVariant(msg) => write!(f, "invalid variant: {msg}"),
            CatalogError::MediaMismatch {
                variant,
                expected,
                got,
            } => write!(
                f,
                "variant {variant} is {got} but its monomedia is {expected}"
            ),
            CatalogError::NoSuchDocument(id) => write!(f, "no such document {id}"),
            CatalogError::Io(msg) => write!(f, "catalog I/O: {msg}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// The in-memory metadata catalog.
///
/// `BTreeMap`s keep iteration deterministic, which keeps every experiment
/// that enumerates the catalog reproducible. Variants themselves sit in a
/// dense arena: the negotiation's per-document lookup then costs one map
/// descent per component instead of one per variant.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    documents: BTreeMap<DocumentId, Document>,
    /// The variants, in insertion order; the indexes below point in here.
    arena: Vec<Variant>,
    /// Index: variant id → arena slot (id-ordered iteration and lookup).
    by_id: BTreeMap<VariantId, usize>,
    /// Index: monomedia → arena slots of the variants representing it.
    by_monomedia: BTreeMap<MonomediaId, Vec<usize>>,
    /// Index: monomedia → owning document.
    owner: BTreeMap<MonomediaId, DocumentId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a document and index its monomedia.
    pub fn add_document(&mut self, doc: Document) -> Result<(), CatalogError> {
        if self.documents.contains_key(&doc.id) {
            return Err(CatalogError::DuplicateDocument(doc.id));
        }
        for m in doc.monomedia() {
            self.owner.insert(m.id, doc.id);
            self.by_monomedia.entry(m.id).or_default();
        }
        self.documents.insert(doc.id, doc);
        Ok(())
    }

    /// Register a stored variant of an already-registered monomedia.
    pub fn add_variant(&mut self, variant: Variant) -> Result<(), CatalogError> {
        if self.by_id.contains_key(&variant.id) {
            return Err(CatalogError::DuplicateVariant(variant.id));
        }
        variant.validate().map_err(CatalogError::InvalidVariant)?;
        let owner = *self
            .owner
            .get(&variant.monomedia)
            .ok_or(CatalogError::UnknownMonomedia(variant.monomedia))?;
        let doc = &self.documents[&owner];
        let mono = doc
            .component(variant.monomedia)
            .expect("owner index is consistent");
        if mono.kind != variant.qos.kind() {
            return Err(CatalogError::MediaMismatch {
                variant: variant.id,
                expected: mono.kind,
                got: variant.qos.kind(),
            });
        }
        let slot = self.arena.len();
        self.by_monomedia
            .entry(variant.monomedia)
            .or_default()
            .push(slot);
        self.by_id.insert(variant.id, slot);
        self.arena.push(variant);
        Ok(())
    }

    /// Look up a document.
    pub fn document(&self, id: DocumentId) -> Option<&Document> {
        self.documents.get(&id)
    }

    /// Look up a variant.
    pub fn variant(&self, id: VariantId) -> Option<&Variant> {
        self.by_id.get(&id).map(|&slot| &self.arena[slot])
    }

    /// All documents, in id order.
    pub fn documents(&self) -> impl Iterator<Item = &Document> {
        self.documents.values()
    }

    /// All variants, in id order.
    pub fn variants(&self) -> impl Iterator<Item = &Variant> {
        self.by_id.values().map(|&slot| &self.arena[slot])
    }

    /// Stored variants of one monomedia, in insertion order, borrowed
    /// straight from the arena: one map descent, no allocation. Step 2 of
    /// the negotiation reads each document component through this.
    pub fn variants_of(
        &self,
        mono: MonomediaId,
    ) -> impl ExactSizeIterator<Item = &Variant> + Clone + '_ {
        let slots = self.by_monomedia.get(&mono).map_or(&[][..], Vec::as_slice);
        slots.iter().map(|&slot| &self.arena[slot])
    }

    /// Per-monomedia variant lists for a whole document, in the document's
    /// component order.
    pub fn variants_of_document(
        &self,
        doc: DocumentId,
    ) -> Result<Vec<(MonomediaId, Vec<&Variant>)>, CatalogError> {
        let document = self
            .documents
            .get(&doc)
            .ok_or(CatalogError::NoSuchDocument(doc))?;
        Ok(document
            .monomedia()
            .iter()
            .map(|m| (m.id, self.variants_of(m.id).collect()))
            .collect())
    }

    /// Number of stored documents.
    pub fn document_count(&self) -> usize {
        self.documents.len()
    }

    /// Number of stored variants.
    pub fn variant_count(&self) -> usize {
        self.arena.len()
    }

    /// Serialize to a JSON string. Only the documents and variants are
    /// persisted; the indexes are derived data and are rebuilt on load.
    pub fn to_json(&self) -> Result<String, CatalogError> {
        use nod_simcore::json::{Json, ToJson};
        let docs: Vec<Json> = self.documents.values().map(|d| d.to_json()).collect();
        let vars: Vec<Json> = self.variants().map(|v| v.to_json()).collect();
        let obj = Json::Obj(vec![
            ("documents".to_string(), Json::Arr(docs)),
            ("variants".to_string(), Json::Arr(vars)),
        ]);
        Ok(obj.to_string_pretty())
    }

    /// Restore from a JSON string produced by [`Catalog::to_json`],
    /// rebuilding the monomedia and ownership indexes.
    pub fn from_json(json: &str) -> Result<Catalog, CatalogError> {
        use nod_simcore::json::FromJson;
        let root = nod_simcore::json::parse(json).map_err(|e| CatalogError::Io(e.to_string()))?;
        let io = |e: nod_simcore::json::JsonError| CatalogError::Io(e.to_string());
        let docs = Vec::<Document>::from_json(root.field("documents").map_err(io)?).map_err(io)?;
        let vars = Vec::<Variant>::from_json(root.field("variants").map_err(io)?).map_err(io)?;
        let mut catalog = Catalog::new();
        for doc in docs {
            catalog.add_document(doc)?;
        }
        for v in vars {
            catalog.add_variant(v)?;
        }
        Ok(catalog)
    }

    /// Persist to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), CatalogError> {
        std::fs::write(path, self.to_json()?).map_err(|e| CatalogError::Io(e.to_string()))
    }

    /// Load from a file.
    pub fn load(path: &std::path::Path) -> Result<Catalog, CatalogError> {
        let text = std::fs::read_to_string(path).map_err(|e| CatalogError::Io(e.to_string()))?;
        Catalog::from_json(&text)
    }

    /// Aggregate statistics per medium: `(variant count, total bytes)`.
    pub fn media_inventory(&self) -> HashMap<MediaKind, (usize, u64)> {
        let mut inv: HashMap<MediaKind, (usize, u64)> = HashMap::new();
        for v in &self.arena {
            let e = inv.entry(v.qos.kind()).or_insert((0, 0));
            e.0 += 1;
            e.1 += v.file_bytes;
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Document {
        Document::multimedia(
            DocumentId(1),
            "article",
            vec![
                Monomedia::new(MonomediaId(1), MediaKind::Video, "clip").with_duration_secs(60),
                Monomedia::new(MonomediaId(2), MediaKind::Audio, "sound").with_duration_secs(60),
            ],
            vec![TemporalConstraint::simultaneous(
                MonomediaId(1),
                MonomediaId(2),
            )],
            vec![],
        )
    }

    fn video_variant(id: u64, server: u64) -> Variant {
        Variant {
            id: VariantId(id),
            monomedia: MonomediaId(1),
            format: Format::Mpeg1,
            qos: MediaQos::Video(VideoQos {
                color: ColorDepth::Color,
                resolution: Resolution::TV,
                frame_rate: FrameRate::TV,
            }),
            blocks: BlockStats::new(12_000, 5_000),
            blocks_per_second: 25,
            file_bytes: 5_000 * 25 * 60,
            server: ServerId(server),
        }
    }

    fn audio_variant(id: u64) -> Variant {
        Variant {
            id: VariantId(id),
            monomedia: MonomediaId(2),
            format: Format::PcmLinear,
            qos: MediaQos::Audio(AudioQos {
                quality: AudioQuality::Cd,
                language: Language::English,
            }),
            blocks: BlockStats::new(4, 4),
            blocks_per_second: 44_100,
            file_bytes: 4 * 44_100 * 60,
            server: ServerId(0),
        }
    }

    fn populated() -> Catalog {
        let mut c = Catalog::new();
        c.add_document(sample_doc()).unwrap();
        c.add_variant(video_variant(1, 0)).unwrap();
        c.add_variant(video_variant(2, 1)).unwrap(); // a copy on another server
        c.add_variant(audio_variant(3)).unwrap();
        c
    }

    #[test]
    fn add_and_query() {
        let c = populated();
        assert_eq!(c.document_count(), 1);
        assert_eq!(c.variant_count(), 3);
        assert_eq!(c.variants_of(MonomediaId(1)).len(), 2);
        assert_eq!(c.variants_of(MonomediaId(2)).len(), 1);
        assert_eq!(c.variants_of(MonomediaId(99)).len(), 0);
    }

    #[test]
    fn variants_of_document_follows_component_order() {
        let c = populated();
        let per = c.variants_of_document(DocumentId(1)).unwrap();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].0, MonomediaId(1));
        assert_eq!(per[0].1.len(), 2);
        assert_eq!(per[1].0, MonomediaId(2));
        assert_eq!(per[1].1.len(), 1);
        assert_eq!(
            c.variants_of_document(DocumentId(5)).unwrap_err(),
            CatalogError::NoSuchDocument(DocumentId(5))
        );
    }

    #[test]
    fn id_order_and_insertion_order_are_both_kept() {
        // Inserted out of id order: `variants()` still iterates by id,
        // `variants_of` by insertion, and lookups find each one.
        let mut c = Catalog::new();
        c.add_document(sample_doc()).unwrap();
        c.add_variant(video_variant(9, 1)).unwrap();
        c.add_variant(audio_variant(5)).unwrap();
        c.add_variant(video_variant(2, 0)).unwrap();
        let ids = |vs: Vec<&Variant>| vs.iter().map(|v| v.id.0).collect::<Vec<_>>();
        assert_eq!(ids(c.variants().collect()), [2, 5, 9]);
        assert_eq!(ids(c.variants_of(MonomediaId(1)).collect()), [9, 2]);
        assert_eq!(c.variant(VariantId(5)).unwrap().monomedia, MonomediaId(2));
        assert!(c.variant(VariantId(3)).is_none());
        let back = Catalog::from_json(&c.to_json().unwrap()).unwrap();
        assert_eq!(ids(back.variants().collect()), [2, 5, 9]);
    }

    #[test]
    fn duplicate_rejection() {
        let mut c = populated();
        assert_eq!(
            c.add_document(sample_doc()).unwrap_err(),
            CatalogError::DuplicateDocument(DocumentId(1))
        );
        assert_eq!(
            c.add_variant(video_variant(1, 0)).unwrap_err(),
            CatalogError::DuplicateVariant(VariantId(1))
        );
    }

    #[test]
    fn unknown_monomedia_rejected() {
        let mut c = Catalog::new();
        let err = c.add_variant(video_variant(1, 0)).unwrap_err();
        assert_eq!(err, CatalogError::UnknownMonomedia(MonomediaId(1)));
    }

    #[test]
    fn media_mismatch_rejected() {
        let mut c = Catalog::new();
        c.add_document(sample_doc()).unwrap();
        // An audio variant claiming to represent the video monomedia.
        let mut v = audio_variant(7);
        v.monomedia = MonomediaId(1);
        match c.add_variant(v).unwrap_err() {
            CatalogError::MediaMismatch { expected, got, .. } => {
                assert_eq!(expected, MediaKind::Video);
                assert_eq!(got, MediaKind::Audio);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn invalid_variant_rejected() {
        let mut c = Catalog::new();
        c.add_document(sample_doc()).unwrap();
        let mut v = video_variant(1, 0);
        v.blocks_per_second = 0;
        assert!(matches!(
            c.add_variant(v).unwrap_err(),
            CatalogError::InvalidVariant(_)
        ));
    }

    #[test]
    fn json_round_trip() {
        let c = populated();
        let json = c.to_json().unwrap();
        let back = Catalog::from_json(&json).unwrap();
        assert_eq!(back.document_count(), c.document_count());
        assert_eq!(back.variant_count(), c.variant_count());
        assert_eq!(back.variants_of(MonomediaId(1)).len(), 2);
    }

    #[test]
    fn file_round_trip() {
        let c = populated();
        let dir = std::env::temp_dir().join("nod_mmdb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        c.save(&path).unwrap();
        let back = Catalog::load(&path).unwrap();
        assert_eq!(back.variant_count(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn media_inventory_totals() {
        let c = populated();
        let inv = c.media_inventory();
        assert_eq!(inv[&MediaKind::Video].0, 2);
        assert_eq!(inv[&MediaKind::Audio].0, 1);
        assert_eq!(inv[&MediaKind::Audio].1, 4 * 44_100 * 60);
    }
}
