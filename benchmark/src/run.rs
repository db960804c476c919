//! Running workloads: one measured run in this process, or a set of
//! fresh-process repeats summarised per metric.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use nod_simcore::json::{self, Json, Num};
use nod_simcore::SplitMix64;

use crate::digest::Fnv1a;
use crate::host::{peak_rss_mb, HostFacts};
use crate::metrics::{Better, MetricDef, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quietest_pooled, Summary};
use crate::workloads::{Lap, Workload};

/// End-to-end metrics that repeat bit for bit for a seed.
const EXACT: &[&str] = &["served_share"];
/// Timed laps a run makes even when the time budget is already spent.
const MIN_LAPS: usize = 3;
/// Consecutive submits of a lap that make one window: 12 to 50 ms of
/// host time, short against a neighbour's burst. Every lap times a
/// multiple of this many at full size.
const SUBMIT_WINDOW: usize = 1_000;
/// The share of a run's submit windows `negotiate_*` are read from: the
/// quietest tenth (see [`quietest_pooled`]), and never fewer than
/// [`QUIET_WINDOWS`].
const QUIET_SHARE: f64 = 0.1;
/// 10 000 submits: 100 beyond the 99th percentile.
const QUIET_WINDOWS: usize = 10;
/// Default `--seconds`: the `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 25.0;

/// Arguments of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// What one measured run found.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Throughput of each timed lap, ops/s, in run order.
    pub lap_rates: Vec<f64>,
    /// Median submit latency of each timed lap, µs, in run order.
    pub lap_p50s: Vec<f64>,
    /// Submit windows the run timed, and how many of them `negotiate_*`
    /// were read from.
    pub windows: (usize, usize),
    pub digest: u64,
    pub values: Values,
}

/// Where span JSONL, captured stderr and result files go: `out/` next to
/// the benchmark's manifest.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest_dir).join("out")
}

/// The world seed of each lap. Every lap of a run builds a different
/// world, all derived from `--seed`: a run's medians are then taken over
/// several draws of the corpus and schedule, and say more about the
/// program and less about one draw's luck.
pub fn lap_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = SplitMix64::new(seed);
    std::iter::repeat_with(move || rng.next_u64())
}

/// Measure one workload for about `seconds`: an untimed warm-up lap on
/// the reference plan, then timed laps until the budget is spent. Each
/// lap contributes one set-up sample and one timed-section sample, and
/// the run reports their medians; submit latency is read from the
/// quietest windows of all the laps' submits.
pub fn measure(args: &RunArgs) -> Result<RunResult, String> {
    let started = Instant::now();
    let plan = args.workload.plan(args.smoke);
    let mut seeds = lap_seeds(args.seed).peekable();
    let reference = plan
        .reference()
        .lap(*seeds.peek().expect("endless"))?
        .digest;
    let mut laps: Vec<Lap> = Vec::new();
    for lap_seed in seeds {
        let t = Instant::now();
        let lap = plan.lap(lap_seed)?;
        let lap_wall = t.elapsed().as_secs_f64();
        // The first timed lap reruns the warm-up's world under the
        // workload's own plan.
        if laps.is_empty() && lap.digest != reference {
            return Err(format!(
                "the workload told a different story than its reference plan: outcome digest {:#018x}, reference {reference:#018x}",
                lap.digest
            ));
        }
        laps.push(lap);
        let spent = started.elapsed().as_secs_f64();
        if laps.len() >= MIN_LAPS && spent + lap_wall > args.seconds {
            break;
        }
    }

    // Counts that must repeat exactly for a seed come from the laps
    // every run makes, however fast the host.
    let fixed = &laps[..MIN_LAPS];
    let mut digest = Fnv1a::default();
    for lap in fixed {
        digest.u64(lap.digest);
    }
    let served: u64 = fixed.iter().map(|l| l.served).sum();
    let offered: u64 = fixed.iter().map(|l| l.ops).sum();

    let per_lap = |f: &dyn Fn(&Lap) -> f64| laps.iter().map(f).collect::<Vec<f64>>();
    let mut values = Values::default();
    let lap_rates = per_lap(&|l| l.ops as f64 / l.timed_s);
    values.set("setup_s", median(&per_lap(&|l| l.setup_s)));
    values.set("sessions_per_s", median(&lap_rates));
    let lap_p50s = per_lap(&|l| percentile(&l.negotiate_us, 50.0));
    let windows: Vec<&[f64]> = laps
        .iter()
        .flat_map(|l| l.negotiate_us.chunks(SUBMIT_WINDOW))
        .collect();
    let quiet = quietest_pooled(&windows, QUIET_SHARE, QUIET_WINDOWS);
    values.set("negotiate_p50_us", percentile(&quiet, 50.0));
    values.set("negotiate_p99_us", percentile(&quiet, 99.0));
    values.set("peak_rss_mb", peak_rss_mb().ok_or("cannot read VmHWM")?);
    values.set("served_share", served as f64 / offered as f64);
    Ok(RunResult {
        attempted: laps.iter().map(|l| l.ops).sum(),
        failed: laps.iter().map(|l| l.errored).sum(),
        lap_rates,
        lap_p50s,
        windows: (windows.len(), quiet.len().div_ceil(SUBMIT_WINDOW)),
        digest: digest.finish(),
        values,
    })
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: Json) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(true)),
        ("attempted".into(), Json::Num(Num::U(attempted))),
        ("failed".into(), Json::Num(Num::U(failed))),
        ("metrics".into(), metrics),
    ])
    .to_string_compact()
}

fn print_header(args: &RunArgs, what: &str, host: &HostFacts) {
    println!(
        "{what} {} seed {}{}",
        args.workload.name(),
        args.seed,
        if args.smoke {
            " (smoke: 1/50 size)"
        } else {
            ""
        }
    );
    println!("{host}");
}

/// `run --workload W`: measure in this process and print every
/// end-to-end metric by name, then the result line. A failed check
/// prints no result line and exits non-zero.
pub fn run_one(args: &RunArgs) -> Result<(), String> {
    let host = HostFacts::gather();
    print_header(args, "run", &host);
    let result = measure(args)?;
    println!(
        "checks ok over {} timed laps: no leaked streams, fates sum to offered, digest equals the reference plan's",
        result.lap_rates.len()
    );
    let rates: Vec<String> = result.lap_rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("ops/s per lap: {}", rates.join(" "));
    let p50s: Vec<String> = result.lap_p50s.iter().map(|r| format!("{r:.1}")).collect();
    println!("submit p50 per lap, us: {}", p50s.join(" "));
    println!(
        "negotiate_* read from the quietest {} of {} windows of {SUBMIT_WINDOW} submits",
        result.windows.1, result.windows.0
    );
    result.values.print_table(END_TO_END);
    // The parent of a repeat set reads this line; a driver ignores it.
    let row = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("seed".into(), Json::Num(Num::U(args.seed))),
        (
            "laps".into(),
            Json::Num(Num::U(result.lap_rates.len() as u64)),
        ),
        (
            "outcome_digest".into(),
            Json::Str(format!("{:#018x}", result.digest)),
        ),
        ("host".into(), host.to_json()),
    ]);
    println!("row {}", row.to_string_compact());
    println!(
        "{}",
        result_line(
            result.attempted,
            result.failed,
            result.values.to_json(END_TO_END)
        )
    );
    Ok(())
}

/// `trace --workload W`: the traced run. Prints every per-layer metric
/// and writes the span JSONL.
pub fn trace_one(args: &RunArgs) -> Result<(), String> {
    let host = HostFacts::gather();
    print_header(args, "trace", &host);
    let traced = crate::trace::trace(args)?;
    traced.values.print_table(PER_LAYER);
    println!("self time by span name (the span minus what its children cover), s:");
    for (name, secs) in &traced.self_seconds {
        println!("  {name:<36} {secs:>16.4}");
    }
    println!("spans: {}", traced.spans_path.display());
    println!(
        "{}",
        result_line(
            traced.attempted,
            traced.failed,
            traced.values.to_json(PER_LAYER)
        )
    );
    Ok(())
}

/// Arguments of a repeat set.
#[derive(Debug, Clone)]
pub struct SetArgs {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub repeats: usize,
    pub smoke: bool,
    /// Also make one traced run per workload and keep its per-layer
    /// metrics in the results file.
    pub with_trace: bool,
    pub out_file: Option<PathBuf>,
}

/// One fresh child process of this executable — `run --workload W` or
/// `trace --workload W` — with its stderr (SLO flight dumps) captured to
/// a file, so the table stays readable. Returns its stdout.
fn spawn(set: &SetArgs, workload: Workload, command: &str, tag: &str) -> Result<String, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stderr_path = dir.join(format!("{}-s{}-{tag}.stderr", workload.name(), set.seed));
    let stderr = std::fs::File::create(&stderr_path)
        .map_err(|e| format!("cannot create {}: {e}", stderr_path.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([command, "--workload", workload.name()])
        .args(["--seed", &set.seed.to_string()])
        .args(["--seconds", &set.seconds.to_string()])
        .stderr(Stdio::from(stderr));
    if set.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {command} {tag}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{} {command} {tag} failed ({}); stderr in {}\n{stdout}",
            workload.name(),
            out.status,
            stderr_path.display()
        ));
    }
    Ok(stdout)
}

/// The `(name, value)` pairs of a child's result line.
fn result_metrics(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    let result = json::parse(last).map_err(|e| e.to_string())?;
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| match m.get("value") {
                Some(Json::Num(n)) => Ok((name.clone(), n.as_f64())),
                _ => Err(format!("metric {name} has no value")),
            })
            .collect(),
        _ => Err("result line has no metrics".into()),
    }
}

struct Repeat {
    digest: String,
    metrics: Vec<(String, f64)>,
}

fn spawn_repeat(set: &SetArgs, workload: Workload, repeat: usize) -> Result<Repeat, String> {
    let stdout = spawn(set, workload, "run", &format!("r{repeat}"))?;
    let row = stdout
        .lines()
        .find_map(|l| l.strip_prefix("row "))
        .ok_or("repeat printed no row line")?;
    let row = json::parse(row).map_err(|e| e.to_string())?;
    let digest = row
        .get("outcome_digest")
        .and_then(|d| d.as_str().ok())
        .ok_or("row has no outcome_digest")?
        .to_string();
    Ok(Repeat {
        digest,
        metrics: result_metrics(&stdout)?,
    })
}

fn summary_json(def: &MetricDef, s: &Summary) -> Json {
    Json::Obj(vec![
        ("unit".into(), Json::Str(def.unit.into())),
        ("n".into(), Json::Num(Num::U(s.n as u64))),
        ("q1".into(), Json::Num(Num::F(s.q1))),
        ("median".into(), Json::Num(Num::F(s.median))),
        ("q3".into(), Json::Num(Num::F(s.q3))),
    ])
}

/// `run` without `--workload`, or with `--repeats`: every chosen
/// workload as `repeats` fresh child processes, each metric summarised
/// as median and quartiles with the sample count.
pub fn run_set(set: &SetArgs) -> Result<(), String> {
    let host = HostFacts::gather();
    println!("{host}");
    println!(
        "seed {} | {} repeats of {} s per workload{}",
        set.seed,
        set.repeats,
        set.seconds,
        if set.smoke { " | smoke: 1/50 size" } else { "" }
    );
    let mut rows = Vec::new();
    let mut digests: Vec<(Workload, String)> = Vec::new();
    for &workload in &set.workloads {
        let repeats: Vec<Repeat> = (0..set.repeats)
            .map(|r| spawn_repeat(set, workload, r))
            .collect::<Result<_, _>>()?;
        if let Some(odd) = repeats.iter().find(|r| r.digest != repeats[0].digest) {
            return Err(format!(
                "{}: repeats disagree on the outcome digest ({} vs {})",
                workload.name(),
                repeats[0].digest,
                odd.digest
            ));
        }
        println!(
            "\n{}  outcome_digest {}",
            workload.name(),
            repeats[0].digest
        );
        let mut metrics = Vec::new();
        for def in END_TO_END {
            let samples: Vec<f64> = repeats
                .iter()
                .filter_map(|r| {
                    r.metrics
                        .iter()
                        .find(|(n, _)| n == def.name)
                        .map(|&(_, v)| v)
                })
                .collect();
            let s = Summary::of(&samples);
            println!(
                "  {:<20} median {:>14.4} {:<6} q1 {:>14.4} q3 {:>14.4} n {} spread {:.1}%",
                def.name,
                s.median,
                def.unit,
                s.q1,
                s.q3,
                s.n,
                100.0 * s.spread()
            );
            metrics.push((def.name.to_string(), summary_json(def, &s)));
        }
        digests.push((workload, repeats[0].digest.clone()));
        let mut row = vec![
            ("name".into(), Json::Str(workload.name().into())),
            (
                "outcome_digest".into(),
                Json::Str(repeats[0].digest.clone()),
            ),
            ("metrics".into(), Json::Obj(metrics)),
        ];
        if set.with_trace {
            let per_layer = result_metrics(&spawn(set, workload, "trace", "trace")?)?;
            println!("  traced: {} per-layer metrics", per_layer.len());
            let per_layer = per_layer
                .into_iter()
                .map(|(name, v)| (name, Json::Num(Num::F(v))))
                .collect();
            row.push(("per_layer".into(), Json::Obj(per_layer)));
        }
        rows.push(Json::Obj(row));
    }

    // Worker-count determinism and "observing must not change what is
    // observed", at no extra run.
    let digest_of = |w| digests.iter().find(|(x, _)| *x == w).map(|(_, d)| d);
    if let Some(steady) = digest_of(Workload::FleetSteady) {
        for other in [Workload::FleetSharded, Workload::FleetObserved] {
            if digest_of(other).is_some_and(|d| d != steady) {
                return Err(format!(
                    "{} and fleet_steady print different outcome digests",
                    other.name()
                ));
            }
        }
    }
    println!("\nall checks ok; fleet_steady, fleet_sharded and fleet_observed share one digest where run");

    if let Some(path) = &set.out_file {
        let doc = Json::Obj(vec![
            ("host".into(), host.to_json()),
            ("seed".into(), Json::Num(Num::U(set.seed))),
            ("repeats".into(), Json::Num(Num::U(set.repeats as u64))),
            ("seconds".into(), Json::Num(Num::F(set.seconds))),
            ("smoke".into(), Json::Bool(set.smoke)),
            ("workloads".into(), Json::Arr(rows)),
        ]);
        std::fs::write(path, doc.to_string_pretty() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    Ok(())
}

fn load_set(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn field<'j>(j: &'j Json, key: &str) -> Result<&'j Json, String> {
    j.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn median_of(metrics: &Json, name: &str) -> Result<f64, String> {
    match field(field(metrics, name)?, "median")? {
        Json::Num(n) => Ok(n.as_f64()),
        _ => Err(format!("{name}: median is not a number")),
    }
}

/// The three ratios the ROADMAP has been missing, from the traced run
/// of `fleet_steady` when the set has one.
fn ratios(workloads: &[Json]) -> Json {
    let steady = workloads
        .iter()
        .find(|w| w.get("name").and_then(|n| n.as_str().ok()) == Some("fleet_steady"));
    Json::Obj(
        ["broker.w2_over_w1", "obs.all_on_tax", "broker.scale_sag"]
            .into_iter()
            .map(|name| {
                let value = steady
                    .and_then(|w| w.get("per_layer"))
                    .and_then(|p| p.get(name))
                    .cloned()
                    .unwrap_or(Json::Null);
                (name.to_string(), value)
            })
            .collect(),
    )
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `compare A B`: per metric × workload, the relative difference of the
/// two sets' medians against the metric's bound. Digests must match bit
/// for bit. Refuses sets from hosts with different core counts.
pub fn compare(a_path: &Path, b_path: &Path, record: Option<&Path>) -> Result<(), String> {
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    let nproc =
        |j: &Json| -> Result<Json, String> { Ok(field(field(j, "host")?, "nproc")?.clone()) };
    if nproc(&a)? != nproc(&b)? {
        return Err(format!(
            "refusing to compare: nproc differs ({:?} vs {:?})",
            nproc(&a)?,
            nproc(&b)?
        ));
    }
    let workloads = |j: &'_ Json| -> Result<Vec<Json>, String> {
        Ok(field(j, "workloads")?
            .as_arr()
            .map_err(|e| e.to_string())?
            .to_vec())
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "worse by", "bound"
    );
    for ra in &wa {
        let name = field(ra, "name")?.as_str().map_err(|e| e.to_string())?;
        let Some(rb) = wb.iter().find(|r| r.get("name") == ra.get("name")) else {
            return Err(format!("{name} is missing from {}", b_path.display()));
        };
        if ra.get("outcome_digest") != rb.get("outcome_digest") {
            failures.push(format!("{name}: outcome digests differ"));
        }
        for def in END_TO_END {
            let ma = median_of(field(ra, "metrics")?, def.name)?;
            let mb = median_of(field(rb, "metrics")?, def.name)?;
            let worse = worsening(def, ma, mb);
            let verdict = if worse.abs() <= def.bound {
                ""
            } else {
                "  OUTSIDE"
            };
            println!(
                "{name:<16} {:<20} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                def.name,
                100.0 * worse,
                100.0 * def.bound
            );
            if worse.abs() > def.bound {
                failures.push(format!("{name}/{}: {:.2}% apart", def.name, 100.0 * worse));
            }
            if EXACT.contains(&def.name) && ma != mb {
                failures.push(format!("{name}/{} must repeat exactly", def.name));
            }
            rows.push(Json::Obj(vec![
                ("workload".into(), Json::Str(name.into())),
                ("metric".into(), Json::Str(def.name.into())),
                ("median_a".into(), Json::Num(Num::F(ma))),
                ("median_b".into(), Json::Num(Num::F(mb))),
                ("worse_by".into(), Json::Num(Num::F(worse))),
                ("bound".into(), Json::Num(Num::F(def.bound))),
            ]));
        }
    }
    if let Some(path) = record {
        let doc = Json::Obj(vec![
            ("claim".into(), Json::Null),
            ("host".into(), field(&a, "host")?.clone()),
            ("seed".into(), field(&a, "seed")?.clone()),
            ("repeats".into(), field(&a, "repeats")?.clone()),
            ("seconds".into(), field(&a, "seconds")?.clone()),
            ("ratios".into(), ratios(&wa)),
            ("baseline".into(), Json::Arr(wa.clone())),
            ("aa".into(), Json::Arr(rows)),
            (
                "aa_digests_identical".into(),
                Json::Bool(!failures.iter().any(|f| f.contains("digest"))),
            ),
        ]);
        std::fs::write(path, doc.to_string_pretty() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("recorded in {}", path.display());
    }
    if failures.is_empty() {
        println!("A/A: every metric x workload within its bound; digests identical");
        Ok(())
    } else {
        Err(format!("A/A disagreement:\n  {}", failures.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        let higher = &END_TO_END[1];
        assert_eq!(
            (lower.better, higher.better),
            (Better::Lower, Better::Higher)
        );
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut v = Values::default();
        for d in END_TO_END {
            v.set(d.name, 1.5);
        }
        let line = result_line(10, 0, v.to_json(END_TO_END));
        let parsed = json::parse(&line).expect("valid JSON");
        let Json::Obj(fields) = &parsed else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
    }
}
