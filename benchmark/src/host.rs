//! Host facts every result row carries. Timings from hosts with
//! different core counts are not comparable, so the runner refuses to
//! compare rows whose `nproc` differ.

use std::process::Command;

use nod_simcore::json::{Json, Num};

#[derive(Debug, Clone, PartialEq)]
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

impl HostFacts {
    pub fn gather() -> HostFacts {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            // A driver's checkout is not a git repository.
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Num(Num::U(self.nproc as u64))),
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
            ("kernel".into(), Json::Str(self.kernel.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("commit".into(), Json::Str(self.commit.clone())),
        ])
    }
}

impl std::fmt::Display for HostFacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "host: nproc {} | {} | kernel {} | {} | commit {}",
            self.nproc, self.cpu_model, self.kernel, self.rustc, self.commit
        )
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
