//! `nod_top` — live fleet view over a contended broker run.
//!
//! ```text
//! cargo run --release -p nod-tui --features top --bin nod_top -- \
//!     --sessions 64 --servers 2 --seed 9 --window-ms 2000 --fps 8
//! ```
//!
//! Drives the B9 contended workload, folds the broker's outcome log
//! into tumbling virtual-time windows (`nod_broker::fleet_windows`) and
//! replays them as `top`-style frames: a summary block for the window
//! under the cursor plus activity sparklines over the history so far.
//! `--slos` attaches the default fleet SLO set; a window's frame shows
//! a `SLO BURNING` banner once a burn alert's window has closed.
//! `--once` skips the replay and prints only the final frame — the
//! deterministic form CI can diff.

use nod_broker::fleet_windows;
use nod_obs::default_fleet_slos;
use nod_tui::top::{render_frame, TopRow};
use nod_workload::{run_contended_with, ContendedConfig};

fn usage() -> ! {
    eprintln!(
        "usage: nod_top [--sessions N] [--servers N] [--clients N] [--seed N] [--faults N] \
         [--arrivals-per-minute F] [--hold-ms N] [--window-ms N] [--fps F] [--slos] [--once]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match it.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("error: {flag} needs a value");
            usage()
        }
    }
}

fn main() {
    let mut config = ContendedConfig {
        seed: 9,
        sessions: 64,
        servers: 2,
        arrivals_per_minute: 180.0,
        hold_ms: 12_000,
        ..ContendedConfig::default()
    };
    let mut window_ms: u64 = 2_000;
    let mut fps: f64 = 8.0;
    let mut once = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sessions" => config.sessions = parse(&mut it, "--sessions"),
            "--servers" => config.servers = parse(&mut it, "--servers"),
            "--clients" => config.clients = parse(&mut it, "--clients"),
            "--seed" => config.seed = parse(&mut it, "--seed"),
            "--faults" => config.fault_windows = parse(&mut it, "--faults"),
            "--arrivals-per-minute" => {
                config.arrivals_per_minute = parse(&mut it, "--arrivals-per-minute")
            }
            "--hold-ms" => config.hold_ms = parse(&mut it, "--hold-ms"),
            "--window-ms" => window_ms = parse(&mut it, "--window-ms"),
            "--fps" => fps = parse(&mut it, "--fps"),
            "--slos" => config.slos = default_fleet_slos(),
            "--once" => once = true,
            _ => usage(),
        }
    }

    let (result, report) = run_contended_with(&config, None);
    let rows: Vec<TopRow> = fleet_windows(report.events.iter(), window_ms)
        .iter()
        .map(|w| TopRow {
            start_ms: w.start_ms,
            end_ms: w.end_ms,
            admitted: w.admitted,
            degraded: w.degraded,
            starved: w.starved,
            rejected: w.rejected,
            errored: w.errored,
            retries: w.retries,
            departures: w.departures,
            fault_edges: w.fault_edges,
            active_at_end: w.active_at_end,
        })
        .collect();

    // An alert banners every frame from the window its burn closed in.
    let alerts_at = |end_ms: u64| -> Vec<&str> {
        report
            .slo_alerts
            .iter()
            .filter(|a| a.window_end_ms <= end_ms)
            .map(|a| a.slo)
            .collect()
    };

    if once {
        let cursor = rows.len().saturating_sub(1);
        let end_ms = rows.last().map_or(0, |w| w.end_ms);
        print!("{}", render_frame(&rows, cursor, &alerts_at(end_ms)));
    } else {
        let frame_gap = std::time::Duration::from_secs_f64(1.0 / fps.max(0.1));
        for (cursor, w) in rows.iter().enumerate() {
            // ESC[2J ESC[H: clear and home, the classic top repaint.
            print!(
                "\x1b[2J\x1b[H{}",
                render_frame(&rows, cursor, &alerts_at(w.end_ms))
            );
            std::thread::sleep(frame_gap);
        }
        if rows.is_empty() {
            print!("{}", render_frame(&rows, 0, &[]));
        }
    }
    println!(
        "run: seed {} — admitted {}/{} ({:.0}%)  retries {}  leaked {}",
        config.seed,
        result.admitted,
        result.offered,
        100.0 * result.admission_ratio,
        result.retries,
        result.leaked_streams,
    );
    for alert in &report.slo_alerts {
        println!(
            "SLO BURN: {} — observed {:.3} vs bound {:.3} for {} windows (ending at {} ms)",
            alert.slo, alert.observed, alert.threshold, alert.burning_windows, alert.window_end_ms
        );
    }
}
