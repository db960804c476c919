//! The catalog's layout contract, checked against a naive model.
//!
//! Seeded random catalogs of 2–3 documents with sparse ids receive
//! variants interleaved across their monomedia, before and after later
//! documents arrive, so variants land inside earlier runs and in blocks
//! already trimmed. After every operation the catalog must answer
//! exactly what a plain insertion log answers:
//! `variants_of(m)` is the log filtered to `m`, `variants()` and
//! `documents()` come in id order, `variant(id)` finds each variant, and
//! every rejected insert is rejected as before and changes nothing.

use nod_mmdb::{Catalog, CatalogError};
use nod_mmdoc::prelude::*;
use nod_simcore::StreamRng;

const KINDS: [MediaKind; 4] = [
    MediaKind::Video,
    MediaKind::Audio,
    MediaKind::Text,
    MediaKind::Image,
];

/// A valid stored variant of `mono`, whose medium is `kind`.
fn variant(id: u64, mono: MonomediaId, kind: MediaKind, rng: &mut StreamRng) -> Variant {
    let bytes = rng.range_u64(1_000, 50_000);
    let (format, qos, blocks_per_second) = match kind {
        MediaKind::Video => (
            Format::Mpeg1,
            MediaQos::Video(VideoQos {
                color: ColorDepth::Color,
                resolution: Resolution::TV,
                frame_rate: FrameRate::TV,
            }),
            25,
        ),
        MediaKind::Audio => (
            Format::PcmLinear,
            MediaQos::Audio(AudioQos {
                quality: AudioQuality::Cd,
                language: Language::English,
            }),
            44_100,
        ),
        MediaKind::Text => (
            Format::PlainText,
            MediaQos::Text(TextQos {
                language: Language::French,
            }),
            0,
        ),
        _ => (
            Format::Jpeg,
            MediaQos::Image(ImageQos {
                color: ColorDepth::Grey,
                resolution: Resolution::new(320),
            }),
            0,
        ),
    };
    Variant {
        id: VariantId(id),
        monomedia: mono,
        format,
        qos,
        blocks: BlockStats::new(bytes, bytes),
        blocks_per_second,
        file_bytes: bytes * 60,
        server: ServerId(rng.below(4)),
    }
}

/// A fresh id from `pool` plus random draws, never one of `taken`.
fn sparse_id(rng: &mut StreamRng, taken: &mut Vec<u64>) -> u64 {
    const POOL: [u64; 6] = [0, 1, u64::MAX, u64::MAX - 1, 1 << 40, 1 << 63];
    loop {
        let id = if rng.chance(0.3) {
            *rng.choose(&POOL)
        } else {
            rng.below(1_000)
        };
        if !taken.contains(&id) {
            taken.push(id);
            return id;
        }
    }
}

/// Everything the catalog must say about itself, read from the log.
fn check(c: &Catalog, docs: &[Document], log: &[Variant]) {
    assert_eq!(c.document_count(), docs.len());
    assert_eq!(c.variant_count(), log.len());
    for doc in docs {
        assert_eq!(c.document(doc.id), Some(doc));
        let per = c.variants_of_document(doc.id).expect("stored document");
        let (found, runs) = c.document_variants(doc.id).expect("stored document");
        assert_eq!(found, doc);
        assert_eq!(runs.len(), doc.monomedia().len());
        for ((m, (mono, listed)), run) in doc.monomedia().iter().zip(&per).zip(runs) {
            let want: Vec<&Variant> = log.iter().filter(|v| v.monomedia == m.id).collect();
            assert_eq!(*mono, m.id);
            assert_eq!(c.variants_of(m.id).iter().collect::<Vec<_>>(), want);
            assert_eq!(run.iter().collect::<Vec<_>>(), want);
            assert_eq!(*listed, want);
        }
    }
    let mut by_id: Vec<&Variant> = log.iter().collect();
    by_id.sort_by_key(|v| v.id);
    assert_eq!(c.variants().collect::<Vec<_>>(), by_id);
    for v in log {
        assert_eq!(c.variant(v.id), Some(v));
    }
    let mut doc_ids: Vec<DocumentId> = docs.iter().map(|d| d.id).collect();
    doc_ids.sort();
    assert_eq!(c.documents().map(|d| d.id).collect::<Vec<_>>(), doc_ids);
}

#[test]
fn the_catalog_answers_like_its_insertion_log() {
    for seed in 0..48 {
        let mut rng = StreamRng::new(seed);
        let mut c = Catalog::new();
        let (mut doc_ids, mut mono_ids, mut variant_ids) = (Vec::new(), Vec::new(), Vec::new());
        let mut pending: Vec<(Document, Vec<(MonomediaId, MediaKind)>)> = (0..rng.range_u64(2, 3))
            .map(|d| {
                let components: Vec<Monomedia> = (0..rng.range_u64(1, 4))
                    .map(|k| {
                        let id = MonomediaId(sparse_id(&mut rng, &mut mono_ids));
                        let kind = *rng.choose(&KINDS);
                        Monomedia::new(id, kind, format!("m{d}.{k}")).with_duration_secs(60)
                    })
                    .collect();
                let monos = components.iter().map(|m| (m.id, m.kind)).collect();
                let id = DocumentId(sparse_id(&mut rng, &mut doc_ids));
                let doc = Document::multimedia(id, format!("d{d}"), components, vec![], vec![]);
                (doc, monos)
            })
            .collect();
        pending.reverse();
        let (mut docs, mut monos) = (Vec::new(), Vec::new());
        let mut log: Vec<Variant> = Vec::new();
        for _ in 0..rng.range_u64(10, 60) {
            if monos.is_empty() || rng.chance(0.1) {
                if let Some((doc, its)) = pending.pop() {
                    c.add_document(doc.clone()).expect("fresh document");
                    assert_eq!(
                        c.add_document(doc.clone()),
                        Err(CatalogError::DuplicateDocument(doc.id))
                    );
                    docs.push(doc);
                    monos.extend(its);
                    check(&c, &docs, &log);
                }
            }
            let &(mono, kind) = rng.choose(&monos);
            let id = sparse_id(&mut rng, &mut variant_ids);
            let v = variant(id, mono, kind, &mut rng);
            if let Some(old) = log.first().filter(|_| rng.chance(0.1)) {
                let again = Variant {
                    monomedia: mono,
                    ..old.clone()
                };
                assert_eq!(
                    c.add_variant(again),
                    Err(CatalogError::DuplicateVariant(old.id))
                );
            }
            if rng.chance(0.1) {
                let stray = MonomediaId(sparse_id(&mut rng, &mut mono_ids));
                assert_eq!(
                    c.add_variant(Variant {
                        monomedia: stray,
                        ..v.clone()
                    }),
                    Err(CatalogError::UnknownMonomedia(stray))
                );
            }
            if rng.chance(0.1) {
                let other = KINDS[(KINDS.iter().position(|&k| k == kind).unwrap() + 1) % 4];
                let wrong = variant(id, mono, other, &mut rng);
                assert_eq!(
                    c.add_variant(wrong),
                    Err(CatalogError::MediaMismatch {
                        variant: VariantId(id),
                        expected: kind,
                        got: other,
                    })
                );
            }
            if rng.chance(0.1) {
                let empty = Variant {
                    file_bytes: 0,
                    ..v.clone()
                };
                assert!(matches!(
                    c.add_variant(empty),
                    Err(CatalogError::InvalidVariant(_))
                ));
            }
            c.add_variant(v.clone()).expect("fresh variant");
            log.push(v);
            check(&c, &docs, &log);
        }

        for (doc, _) in pending.into_iter().rev() {
            c.add_document(doc.clone()).expect("fresh document");
            docs.push(doc);
        }
        check(&c, &docs, &log);
        let back = Catalog::from_json(&c.to_json().unwrap()).unwrap();
        check(&back, &docs, &log);
        let absent = sparse_id(&mut rng, &mut variant_ids);
        assert_eq!(c.variant(VariantId(absent)), None);
        assert!(c.variants_of(MonomediaId(u64::MAX - 2)).is_empty());
        let stray = DocumentId(sparse_id(&mut rng, &mut doc_ids));
        assert!(c.document(stray).is_none());
        assert_eq!(
            c.variants_of_document(stray),
            Err(CatalogError::NoSuchDocument(stray))
        );
    }
}
