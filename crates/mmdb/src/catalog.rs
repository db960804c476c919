//! The variant catalog: documents, variants, locations and block stats.

use std::collections::HashMap;

use nod_mmdoc::prelude::*;
use nod_simcore::hash::IntMap;

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
/// Step 2 of every negotiation reads all stored variants of every
/// component of one document, so the layout serves that read:
///
/// - each document owns one block of variants, in which each monomedia it
///   registered has one contiguous run, in the order its variants were
///   added;
/// - one probe of a document's id finds the document and the run of each
///   of its components ([`Catalog::document_variants`]), and one probe of
///   a monomedia's id finds its run ([`Catalog::variants_of`]).
///
/// Builders add a document, then its variants, then the next document, so
/// a variant lands at the end of its block, and the previous block is
/// trimmed to its length when the next document arrives: a stored block
/// carries no growth slack. A variant added to an earlier run of a block
/// shifts the later runs of that block only. The id-ordered views —
/// [`Catalog::variant`], [`Catalog::variants`], [`Catalog::documents`] —
/// are off that path: a variant id is found by bisecting an id-sorted
/// index, and documents are sorted when asked for.
///
/// The id probes hash with [`IntMap`]'s unkeyed hasher. That needs no
/// flooding resistance here: only whoever builds the catalog chooses the
/// ids that are inserted, and a requester's id is only looked up.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// Documents, in insertion order.
    documents: Vec<Entry>,
    /// Index: document id → position in `documents`.
    by_document: IntMap<DocumentId, u32>,
    /// Each document's components' run indexes, document after document.
    component_runs: Vec<u32>,
    /// One run per registered monomedia; the runs one document registered
    /// are adjacent, in its component order.
    runs: Vec<Run>,
    /// Index: monomedia → its run.
    by_monomedia: IntMap<MonomediaId, u32>,
    /// `(variant id, run, offset in the run)`, sorted by id.
    by_id: Vec<(VariantId, u32, u32)>,
}

/// A stored document, where its components' runs are listed, and the
/// block holding the runs it registered.
#[derive(Debug, Clone)]
struct Entry {
    document: Document,
    /// The document's first entry in `Catalog::component_runs`.
    first_run: u32,
    /// The variants of the runs this document registered, run after run.
    variants: Vec<Variant>,
}

/// One monomedia's variants: `documents[doc].variants[start..start + len]`.
#[derive(Debug, Clone, Copy)]
struct Run {
    doc: u32,
    start: u32,
    len: u32,
    /// The monomedia's medium, which each of its variants must share.
    kind: MediaKind,
}

impl Run {
    fn slots(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A catalog position as the compact index type.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("a catalog holds fewer than 2^32 entries")
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a document and index its monomedia.
    ///
    /// A monomedia another document already registered keeps its stored
    /// variants, which both documents then read; its medium is the new
    /// document's.
    pub fn add_document(&mut self, doc: Document) -> Result<(), CatalogError> {
        if self.by_document.contains_key(&doc.id) {
            return Err(CatalogError::DuplicateDocument(doc.id));
        }
        if let Some(previous) = self.documents.last_mut() {
            previous.variants.shrink_to_fit();
        }
        let at = index(self.documents.len());
        let first_run = index(self.component_runs.len());
        for m in doc.monomedia() {
            let runs = &mut self.runs;
            let r = *self.by_monomedia.entry(m.id).or_insert_with(|| {
                runs.push(Run {
                    doc: at,
                    start: 0,
                    len: 0,
                    kind: m.kind,
                });
                index(runs.len() - 1)
            });
            self.runs[r as usize].kind = m.kind;
            self.component_runs.push(r);
        }
        self.by_document.insert(doc.id, at);
        self.documents.push(Entry {
            document: doc,
            first_run,
            variants: Vec::new(),
        });
        Ok(())
    }

    /// Register a stored variant of an already-registered monomedia.
    pub fn add_variant(&mut self, variant: Variant) -> Result<(), CatalogError> {
        let at = match self.by_id.last() {
            None => 0,
            Some(&(last, ..)) if last < variant.id => self.by_id.len(),
            Some(_) => match self.by_id.binary_search_by_key(&variant.id, |e| e.0) {
                Ok(_) => return Err(CatalogError::DuplicateVariant(variant.id)),
                Err(at) => at,
            },
        };
        variant.validate().map_err(CatalogError::InvalidVariant)?;
        let r = *self
            .by_monomedia
            .get(&variant.monomedia)
            .ok_or(CatalogError::UnknownMonomedia(variant.monomedia))?;
        let run = &mut self.runs[r as usize];
        if run.kind != variant.qos.kind() {
            return Err(CatalogError::MediaMismatch {
                variant: variant.id,
                expected: run.kind,
                got: variant.qos.kind(),
            });
        }
        self.by_id.insert(at, (variant.id, r, run.len));
        let block = &mut self.documents[run.doc as usize].variants;
        block.insert(run.slots().end, variant);
        run.len += 1;
        let doc = run.doc;
        let later = self.runs[r as usize + 1..].iter_mut();
        later
            .take_while(|l| l.doc == doc)
            .for_each(|l| l.start += 1);
        Ok(())
    }

    /// Look up a document: one probe.
    pub fn document(&self, id: DocumentId) -> Option<&Document> {
        let &at = self.by_document.get(&id)?;
        Some(&self.documents[at as usize].document)
    }

    /// A document and, in its component order, each component's stored
    /// variants in insertion order: one probe of the document's id, then
    /// plain indexing, no allocation. Step 2 of the negotiation reads a
    /// requested document through this.
    pub fn document_variants(
        &self,
        id: DocumentId,
    ) -> Option<(
        &Document,
        impl ExactSizeIterator<Item = &[Variant]> + Clone + '_,
    )> {
        let &at = self.by_document.get(&id)?;
        let entry = &self.documents[at as usize];
        let first = entry.first_run as usize;
        let runs = &self.component_runs[first..first + entry.document.monomedia().len()];
        let variants = runs.iter().map(|&r| self.run(r));
        Some((&entry.document, variants))
    }

    fn run(&self, r: u32) -> &[Variant] {
        let run = self.runs[r as usize];
        &self.documents[run.doc as usize].variants[run.slots()]
    }

    /// Look up a variant.
    pub fn variant(&self, id: VariantId) -> Option<&Variant> {
        let at = self.by_id.binary_search_by_key(&id, |e| e.0).ok()?;
        let (_, r, offset) = self.by_id[at];
        Some(&self.run(r)[offset as usize])
    }

    /// All documents, in id order.
    pub fn documents(&self) -> impl Iterator<Item = &Document> {
        let mut docs: Vec<&Document> = self.documents.iter().map(|e| &e.document).collect();
        docs.sort_unstable_by_key(|d| d.id);
        docs.into_iter()
    }

    /// All variants, in id order.
    pub fn variants(&self) -> impl Iterator<Item = &Variant> {
        (self.by_id.iter()).map(|&(_, r, offset)| &self.run(r)[offset as usize])
    }

    /// Stored variants of one monomedia, in insertion order: one probe.
    pub fn variants_of(&self, mono: MonomediaId) -> &[Variant] {
        self.by_monomedia
            .get(&mono)
            .map_or(&[][..], |&r| self.run(r))
    }

    /// Per-monomedia variant lists for a whole document, in the document's
    /// component order.
    pub fn variants_of_document(
        &self,
        doc: DocumentId,
    ) -> Result<Vec<(MonomediaId, Vec<&Variant>)>, CatalogError> {
        let (document, runs) = self
            .document_variants(doc)
            .ok_or(CatalogError::NoSuchDocument(doc))?;
        Ok((document.monomedia().iter().zip(runs))
            .map(|(m, run)| (m.id, run.iter().collect()))
            .collect())
    }

    /// Number of stored documents.
    pub fn document_count(&self) -> usize {
        self.documents.len()
    }

    /// Number of stored variants.
    pub fn variant_count(&self) -> usize {
        self.by_id.len()
    }

    /// Serialize to a JSON string. Only the documents and variants are
    /// persisted; the indexes are derived data and are rebuilt on load.
    /// Variants are written run after run, each in insertion order, so a
    /// reload keeps every monomedia's order.
    pub fn to_json(&self) -> Result<String, CatalogError> {
        use nod_simcore::json::{Json, ToJson};
        let docs: Vec<Json> = self.documents().map(|d| d.to_json()).collect();
        let vars: Vec<Json> = (0..index(self.runs.len()))
            .flat_map(|r| self.run(r))
            .map(|v| v.to_json())
            .collect();
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
        for v in self.variants() {
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
        assert_eq!(ids(c.variants_of(MonomediaId(1)).iter().collect()), [9, 2]);
        assert_eq!(c.variant(VariantId(5)).unwrap().monomedia, MonomediaId(2));
        assert!(c.variant(VariantId(3)).is_none());
        let back = Catalog::from_json(&c.to_json().unwrap()).unwrap();
        assert_eq!(ids(back.variants().collect()), [2, 5, 9]);
        assert_eq!(
            ids(back.variants_of(MonomediaId(1)).iter().collect()),
            [9, 2]
        );
    }

    #[test]
    fn a_monomedia_two_documents_register_is_read_by_both() {
        let mut c = populated();
        let reprint = Document::multimedia(
            DocumentId(2),
            "reprint",
            vec![Monomedia::new(MonomediaId(2), MediaKind::Audio, "sound").with_duration_secs(60)],
            vec![],
            vec![],
        );
        c.add_document(reprint).unwrap();
        c.add_variant(video_variant(4, 0)).unwrap();
        let mut french = audio_variant(5);
        french.qos = MediaQos::Audio(AudioQos {
            quality: AudioQuality::Cd,
            language: Language::French,
        });
        c.add_variant(french).unwrap();
        let ids = |d| {
            let per = c.variants_of_document(DocumentId(d)).unwrap();
            let ids = |vs: &Vec<&Variant>| vs.iter().map(|v| v.id.0).collect::<Vec<_>>();
            per.iter().map(|(_, vs)| ids(vs)).collect::<Vec<_>>()
        };
        assert_eq!(ids(1), [vec![1, 2, 4], vec![3, 5]]);
        assert_eq!(ids(2), [vec![3, 5]]);
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
