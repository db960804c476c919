//! E6 — the §7 cost model: throughput-class tables and formula (1).
//!
//! Prints the network and server cost tables, then decomposes the cost of
//! a two-minute news article (video + CD narration + caption) into
//! `CostDoc = CostCop + Σ (CostNetᵢ + CostSerᵢ)` for both guarantee
//! classes, verifying the additive identity.

use nod_bench::{standard_world, Table};
use nod_cmfs::Guarantee;
use nod_qosneg::{CostModel, Money};

fn main() {
    println!("E6 — cost computation (paper §7, formula (1))\n");
    let model = CostModel::era_default();

    let mut t = Table::new(&["throughput class (≤)", "network $/s", "server $/s"]);
    for (i, bound) in model.network.bounds().iter().enumerate() {
        t.row(&[
            format!("{:.3} Mb/s", *bound as f64 / 1e6),
            model.network.rate_per_second(*bound).to_string(),
            model.server.rate_per_second(*bound).to_string(),
        ]);
        let _ = i;
    }
    t.row(&[
        "overflow".into(),
        model.network.rate_per_second(u64::MAX).to_string(),
        model.server.rate_per_second(u64::MAX).to_string(),
    ]);
    println!("{}", t.render());

    let world = standard_world(7, 3, 2, 2);
    let doc = world
        .catalog
        .documents()
        .next()
        .expect("corpus has documents");
    println!(
        "document {} \"{}\" — {} components, {:.0} s",
        doc.id,
        doc.title,
        doc.monomedia().len(),
        doc.total_duration_ms().unwrap() as f64 / 1e3
    );

    for guarantee in [Guarantee::Guaranteed, Guarantee::BestEffort] {
        let mut t = Table::new(&[
            "monomedia",
            "variant",
            "sustained rate",
            "CostNet_i",
            "CostSer_i",
        ]);
        let mut total = model.copyright;
        let mut selections = Vec::new();
        for m in doc.monomedia() {
            // First stored variant of each component, as a concrete offer.
            let v = (world.catalog.variants_of(m.id).next()).expect("every component is stored");
            selections.push((v, m.duration_ms));
            let (net, ser) = model.monomedia_cost(v, m.duration_ms, guarantee);
            total += net + ser;
            let rate = v.avg_bit_rate();
            t.row(&[
                m.title.clone(),
                format!("{} {}", v.format, v.qos),
                format!("{:.2} Mb/s", rate as f64 / 1e6),
                net.to_string(),
                ser.to_string(),
            ]);
        }
        println!(
            "guarantee class: {guarantee:?}   CostCop = {}",
            model.copyright
        );
        println!("{}", t.render());
        let formula = model.document_cost(selections.iter().map(|&(v, d)| (v, d)), guarantee);
        println!(
            "  CostDoc by formula (1): {formula}   hand sum: {total}   identity {}\n",
            if formula == total { "✓" } else { "✗" }
        );
        assert_eq!(formula, total, "formula (1) must decompose additively");
    }

    // The paper's running numbers live in the $2.50-$6 band: check the
    // era calibration keeps the *cheapest* offer of a standard article in
    // that neighbourhood (guaranteed class).
    let cheapest = model.document_cost(
        doc.monomedia().iter().map(|m| {
            let v = world
                .catalog
                .variants_of(m.id)
                .min_by_key(|v| {
                    let (n, s) = model.monomedia_cost(v, m.duration_ms, Guarantee::Guaranteed);
                    n + s
                })
                .expect("every component has variants");
            (v, m.duration_ms)
        }),
        Guarantee::Guaranteed,
    );
    println!(
        "calibration: the cheapest offer for this article costs {cheapest} \
         (paper's examples quote offers between {} and {})",
        Money::from_dollars_f64(2.5),
        Money::from_dollars(6)
    );
}
