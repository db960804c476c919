//! Shared infrastructure for the experiment harnesses.
//!
//! Each `e*_` binary regenerates one figure, table or worked example of the
//! paper (see DESIGN.md's experiment index and EXPERIMENTS.md for the
//! paper-vs-measured record). The binaries print plain-text tables through
//! [`Table`] so their output is diffable run-to-run.

pub mod fleet;
pub mod flush;

pub use fleet::MetroFleet;
pub use flush::FlushGuard;

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
use nod_mmdoc::ServerId;
use nod_netsim::{Network, Topology};
use nod_qosneg::negotiate::{NegotiationContext, StreamingMode};
use nod_qosneg::{ClassificationStrategy, CostModel};
use nod_simcore::StreamRng;

/// A fixed-width text table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics when the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                let pad = widths[c] - cell.chars().count();
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
                if c + 1 < cols {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string() + "\n"
        };
        let mut out = fmt_row(&self.header);
        out.push_str(&"-".repeat(out.trim_end().chars().count()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// The standard experiment world: catalog + farm + network + pricing.
#[derive(Debug)]
pub struct World {
    /// The metadata catalog.
    pub catalog: Catalog,
    /// The file-server farm.
    pub farm: ServerFarm,
    /// The network.
    pub network: Network,
    /// The pricing model.
    pub cost: CostModel,
}

impl World {
    /// [`context`] over this world.
    pub fn context(&self) -> NegotiationContext<'_> {
        context(&self.catalog, &self.farm, &self.network, &self.cost)
    }
}

/// The experiments' negotiation context over a world's parts: SNS-then-OIF
/// ordering, guaranteed service, a 500 000-offer enumeration cap, a 2 s
/// jitter buffer, nothing recorded.
pub fn context<'a>(
    catalog: &'a Catalog,
    farm: &'a ServerFarm,
    network: &'a Network,
    cost_model: &'a CostModel,
) -> NegotiationContext<'a> {
    NegotiationContext {
        catalog,
        farm,
        network,
        cost_model,
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

/// Build a deterministic experiment world.
pub fn standard_world(seed: u64, documents: usize, servers: usize, clients: usize) -> World {
    let mut rng = StreamRng::new(seed);
    let catalog = CorpusBuilder::new(CorpusParams {
        documents,
        servers: (0..servers as u64).map(ServerId).collect(),
        ..CorpusParams::default()
    })
    .build(&mut rng);
    World {
        catalog,
        farm: ServerFarm::uniform(servers, ServerConfig::era_default()),
        network: Network::new(Topology::dumbbell(
            clients,
            servers,
            25_000_000,
            155_000_000,
        )),
        cost: CostModel::era_default(),
    }
}

/// Write an experiment artifact, creating missing parent directories.
///
/// Every `--*-out` flag funnels through here so `--trace-out
/// out/run7/trace.jsonl` works on a fresh checkout; errors name the
/// offending path.
pub fn write_artifact(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    write_artifact_with(path, |out| out.write_all(contents.as_bytes()))
}

/// [`write_artifact`] with the contents streamed by `write` through a
/// buffered file, for an artifact too large to build as one string.
pub fn write_artifact_with(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("creating parent of {}: {e}", path.display()),
                )
            })?;
        }
    }
    let named = |e: io::Error| io::Error::new(e.kind(), format!("writing {}: {e}", path.display()));
    let mut out = BufWriter::new(File::create(path).map_err(named)?);
    write(&mut out).and_then(|()| out.flush()).map_err(named)
}

/// The process's peak resident set size (VmHWM), in kilobytes.
///
/// Linux-only (`/proc/self/status`); returns `None` elsewhere. The value
/// is a process-lifetime high-water mark, so it is one scale's reading
/// only when the process drives one scale (as `run_fleet` does).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Format a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "2.5".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer-name"));
        // Columns align: "value" column starts at the same offset.
        let col = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][col..col + 1], "1");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn write_artifact_creates_missing_parents_and_names_paths() {
        let dir = std::env::temp_dir().join("nod_write_artifact_test");
        let _ = std::fs::remove_dir_all(&dir);
        let nested = dir.join("a/b/c.jsonl");
        write_artifact(&nested, "x\n").unwrap();
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "x\n");
        // A directory in the way yields an error that names the path.
        let blocked = dir.join("a/b");
        let err = write_artifact(&blocked, "y").unwrap_err();
        assert!(err.to_string().contains("a/b"), "error was: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn world_builder_is_deterministic() {
        let a = standard_world(3, 5, 2, 4);
        let b = standard_world(3, 5, 2, 4);
        assert_eq!(a.catalog.variant_count(), b.catalog.variant_count());
        assert_eq!(a.farm.len(), 2);
    }
}
