//! E1 — Figure 1: the multimedia document object model, exercised.
//!
//! Builds a representative news article (video + narration + caption +
//! photo), stores it with variants in the catalog, and prints the
//! aggregation structure, the resolved temporal schedule and the per-
//! monomedia variant sets — the object model of the paper's Figure 1 made
//! concrete.

use nod_bench::{standard_world, Table};

fn main() {
    let world = standard_world(42, 5, 3, 4);
    println!("E1 — multimedia document model (paper Figure 1)\n");

    for doc in world.catalog.documents().take(2) {
        println!(
            "Document {} \"{}\" — {}",
            doc.id,
            doc.title,
            if doc.is_multimedia() {
                "multimedia (aggregation of monomedia)"
            } else {
                "monomedia"
            }
        );
        let schedule = doc.schedule().expect("corpus schedules resolve");
        let mut t = Table::new(&[
            "monomedia",
            "medium",
            "start",
            "duration",
            "variants",
            "formats",
        ]);
        for m in doc.monomedia() {
            let variants = world.catalog.variants_of(m.id);
            let formats: Vec<String> = variants.iter().map(|v| v.format.to_string()).collect();
            t.row(&[
                m.title.clone(),
                m.kind.to_string(),
                format!("{:.1}s", schedule[&m.id] as f64 / 1e3),
                format!("{:.0}s", m.duration_ms as f64 / 1e3),
                variants.len().to_string(),
                formats.join(","),
            ]);
        }
        println!("{}", t.render());
        println!(
            "  temporal constraints: {}   total duration: {:.0}s\n",
            doc.temporal_constraints().len(),
            doc.total_duration_ms().unwrap() as f64 / 1e3
        );
    }

    let inventory = world.catalog.media_inventory();
    let mut t = Table::new(&["medium", "stored variants", "total bytes"]);
    let mut kinds: Vec<_> = inventory.iter().collect();
    kinds.sort_by_key(|(k, _)| format!("{k}"));
    for (kind, (count, bytes)) in kinds {
        t.row(&[kind.to_string(), count.to_string(), bytes.to_string()]);
    }
    println!(
        "Catalog inventory across {} documents:",
        world.catalog.document_count()
    );
    println!("{}", t.render());
}
