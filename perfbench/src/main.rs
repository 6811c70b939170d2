//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <cold-run|serve-mix|session-churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) a run measures the end-to-end metrics; traced
//! (`--trace 1`) it records benchmark spans around every layer call next
//! to the program's own spans, writes them to one trace file under
//! `.bench_out/`, and computes the per-layer metrics from that file.
//! Every output is checked; a mismatch is a failed operation and makes
//! the run exit 1. The last line of standard output is the result
//! object; the line before it carries sample counts and run context.
//! Executor threads, daemon workers and connections are all `nproc`.
//!
//! Run it from the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload cold-run --seed 1 --seconds 20 --trace 0`.

#![forbid(unsafe_code)]

mod churn;
mod cold;
mod loadgen;
mod output;
mod serve;
mod stats;
mod trace;

use output::{Metric, Outcome, RunInfo};
use std::process::ExitCode;
use std::time::Duration;

/// Where traced runs write their trace files (inside the checkout).
pub const OUT_DIR: &str = ".bench_out";

/// One run's settings.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    /// Executor threads, daemon workers, generator threads and
    /// keep-alive connections: `nproc`.
    pub threads: usize,
}

const USAGE: &str = "usage: perfbench --workload <cold-run|serve-mix|session-churn> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args(nproc: usize) -> Result<(String, u64, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 0,
        seconds: Duration::ZERO,
        traced: false,
        threads: nproc,
    };
    let mut secs = 0;
    let mut seen_seed = false;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let num = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                ctx.seed = num("--seed")?;
                seen_seed = true;
            }
            "--seconds" => secs = num("--seconds")?,
            "--trace" => {
                ctx.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seen_seed || secs == 0 {
        return Err("--seed and a positive --seconds are required".to_string());
    }
    ctx.seconds = Duration::from_secs(secs);
    Ok((workload, secs, ctx))
}

/// `trace_overhead_pct`: the traced samples' median against the
/// untraced samples' median.
pub fn push_overhead(out: &mut Outcome, traced: &[f64], untraced: &[f64]) {
    let base = stats::median(untraced);
    let pct = if base > 0.0 {
        (stats::median(traced) / base - 1.0) * 100.0
    } else {
        0.0
    };
    out.push(Metric::value(
        "trace_overhead_pct",
        "%",
        pct,
        traced.len().min(untraced.len()),
    ));
}

/// `peak_rss_mib`: this process's peak resident set (`VmHWM`), read by
/// each workload right after its first measured operation. Later
/// operations only add allocator retention, whose growth depends on
/// thread scheduling, not on the code under test.
pub fn peak_rss() -> Option<Metric> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(Metric::value("peak_rss_mib", "MiB", kb / 1024.0, 1))
}

/// The commit under test: `git rev-parse HEAD` where the working
/// directory is a repository root, otherwise `unknown`.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (workload, secs, ctx) = match parse_args(nproc) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; pass --release");
        return ExitCode::from(2);
    }
    let result = match workload.as_str() {
        "cold-run" => cold::run_workload(&ctx),
        "serve-mix" => serve::run_workload(&ctx),
        "session-churn" => churn::run_workload(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    outcome.push(Metric::value(
        "failed_frac",
        "ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted as usize,
    ));
    let info = RunInfo {
        workload,
        seed: ctx.seed,
        seconds: secs,
        traced: ctx.traced,
        nproc,
        threads: ctx.threads,
        commit: commit(),
    };
    println!("{}", output::detail_line(&info, &outcome));
    match output::result_line(&outcome, ctx.traced) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if outcome.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
