//! The repo's benchmark. See `README.md` beside the manifest.
//!
//! ```text
//! nod-benchmark run [--workload W] [--seed S] [--seconds T] [--repeats R] [--smoke] [--with-trace] [--out FILE]
//! nod-benchmark run --workload W --seed S --seconds T --trace 0|1
//! nod-benchmark trace --workload W [--seed S] [--smoke]
//! nod-benchmark compare A.json B.json [--record FILE]
//! ```

#[cfg(feature = "count-allocs")]
mod alloc;
mod digest;
mod host;
mod metrics;
mod run;
mod spans;
mod stats;
mod trace;
mod workloads;
mod worlds;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{RunArgs, SetArgs, RUN_SECONDS};
use workloads::Workload;

const USAGE: &str = "usage:
  nod-benchmark run [--workload W] [--seed S] [--seconds T] [--repeats R] [--smoke] [--with-trace] [--out FILE]
  nod-benchmark run --workload W --seed S --seconds T --trace 0|1
  nod-benchmark trace --workload W [--seed S] [--smoke]
  nod-benchmark compare A.json B.json [--record FILE]
workloads: fleet_steady fleet_sharded fleet_observed fleet_overload click_mixed";

#[derive(Default)]
struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    repeats: Option<usize>,
    smoke: bool,
    with_trace: bool,
    out: Option<PathBuf>,
    record: Option<PathBuf>,
    positional: Vec<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read `{v}`"))
        }
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                f.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => f.seed = Some(num("--seed", value("--seed")?)?),
            "--seconds" => {
                let s: f64 = num("--seconds", value("--seconds")?)?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                f.seconds = Some(s);
            }
            "--trace" => f.trace = num::<u8>("--trace", value("--trace")?)? != 0,
            "--repeats" => f.repeats = Some(num::<usize>("--repeats", value("--repeats")?)?.max(1)),
            "--smoke" => f.smoke = true,
            "--with-trace" => f.with_trace = true,
            "--out" => f.out = Some(value("--out")?.into()),
            "--record" => f.record = Some(value("--record")?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => f.positional.push(path.into()),
        }
    }
    Ok(f)
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or("no command")?;
    let f = parse_flags(rest)?;
    let seed = f.seed.unwrap_or(12);
    // Smoke checks correctness, not speed: the minimum number of laps.
    let seconds = f.seconds.unwrap_or(if f.smoke { 0.0 } else { RUN_SECONDS });
    let one = |workload| RunArgs {
        workload,
        seed,
        seconds,
        smoke: f.smoke,
    };
    match (command.as_str(), f.workload) {
        ("run", Some(w)) if f.repeats.is_none() && f.trace => run::trace_one(&one(w)),
        ("run", Some(w)) if f.repeats.is_none() => run::run_one(&one(w)),
        ("run", w) => run::run_set(&SetArgs {
            workloads: w.map_or(Workload::ALL.to_vec(), |w| vec![w]),
            seed,
            seconds,
            repeats: f.repeats.unwrap_or(3),
            smoke: f.smoke,
            with_trace: f.with_trace,
            out_file: f.out,
        }),
        ("trace", Some(w)) => run::trace_one(&one(w)),
        ("trace", None) => Err("trace needs --workload".into()),
        ("compare", _) => match f.positional.as_slice() {
            [a, b] => run::compare(a, b, f.record.as_deref()),
            _ => Err("compare needs two result files".into()),
        },
        (other, _) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if args.is_empty() || e.starts_with("unknown") || e.contains("needs") {
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}
